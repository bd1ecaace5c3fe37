(* The wire workloads: n = 5, f = 1 over unix sockets, 8 virtual
   clients multiplexed by one single-threaded load (this process) over
   the 5 server connections; the servers run in a separate
   single-threaded process (this binary re-executed in server mode).

   A run is a sequence of rounds until --seconds have passed.  Each
   round starts a fresh server process, drives one [Client.run] to
   completion, stops the server and checks the outputs, so the reads
   of a round can only return the initial value or a value that round
   wrote.  In a traced run (--trace 1) odd rounds carry spans and even
   rounds do not; the difference between the two is the span
   overhead. *)

open Engine.Types
open Util

let clients = 8
let n = 5
let f = 1

type mode =
  | Closed of { ops_per_client : int }
  | Open of { rate : float; round_s : float }

type spec = {
  algo_key : string;
  value_len : int;
  read_pct : int;
  mode : mode;
  certified : bool;  (** wire trace on in both processes + refinement *)
}

let specs =
  [
    ( "abd-closed",
      { algo_key = "abd-mw"; value_len = 16; read_pct = 90;
        mode = Closed { ops_per_client = 3000 }; certified = false } );
    ( "abd-open",
      { algo_key = "abd-mw"; value_len = 16; read_pct = 90;
        mode = Open { rate = 2000.; round_s = 3. }; certified = false } );
    ( "cas-certified",
      { algo_key = "cas"; value_len = 1024; read_pct = 20;
        mode = Closed { ops_per_client = 200 }; certified = true } );
  ]

(* CAS's garbage-collection depth covers every client (delta = 8). *)
let params value_len = Engine.Types.params ~n ~f ~k:3 ~delta:clients ~value_len ()

let addrs dir =
  Array.init n (fun i -> Transport.Conn.Uds (Filename.concat dir (Printf.sprintf "s%d.sock" i)))

(* ----- server process ----- *)

type server_result = {
  stats : Transport.Server.stats;
  sproc : proc;  (** OS counters over Server.serve *)
  sspans : Spans.snapshot;
}

let server_child = function
  | [ key; value_len; dir; certified; traced ] ->
      Faults.Hammer.dispatch ~key ~canary:false
        {
          use =
            (fun algo ->
              let algo = if String.equal traced "1" then Spans.wrap algo else algo in
              let stop = ref false in
              Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
              let trace =
                if String.equal certified "1" then
                  Some (Transport.Trace.open_writer (Filename.concat dir "server.trace"))
                else None
              in
              let stats =
                Spans.in_region Spans.r_server (fun () ->
                    Transport.Server.serve algo (params (int_of_string value_len)) ~algo_key:key
                      ~addrs:(addrs dir) ~clients ?trace
                      ~stop:(fun () -> !stop)
                      ~on_ready:send_ready ())
              in
              Option.iter Transport.Trace.close trace;
              let sspans = Spans.snapshot () in
              send_result { stats; sproc = sspans.Spans.proc.(Spans.r_server); sspans });
        }
  | _ -> failwith "server child: bad arguments"

(* ----- one round ----- *)

type outcome = { ok : bool; attempted : int; failed : int }

type round = {
  traced : bool;
  attempted : int;
  failed : int;
  failures : string list;
  cstats : Transport.Client.stats;  (** responses dropped *)
  cproc : proc;
  cspans : Spans.snapshot;
  srv : server_result;
  setup_s : float;
  lat : float array;  (** seconds, from the scheduled arrival *)
  lag : float array;  (** open loop: dispatch time minus scheduled arrival *)
  offered : int;  (** open loop: arrivals scheduled in the round *)
  check_s : float;  (** output validation, or certification *)
  certify : (float * float * Transport.Refine.report) option;  (** load_s, replay_s *)
  trace_bytes : int;
}

(* Inputs captured in traced rounds for the out-of-band timings. *)
type 'm capture = {
  mutable reqs : 'm list;
  mutable replies : 'm list;
  mutable server_events : Transport.Trace.ev list;
  mutable client_events : Transport.Trace.ev list;
  mutable n_cap : int;
}

let cap_limit = 400
let validate_passes = 128

(* A write value of exactly [len] bytes, unique within the round. *)
let make_value rng ~c ~k len =
  let prefix = Printf.sprintf "%d.%d." c k in
  let h = Random.State.bits rng in
  String.init len (fun i ->
      if i < String.length prefix then prefix.[i]
      else Char.chr (97 + ((h + (i * 7919)) mod 26)))

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* [keep]: a directory that receives the round's two trace files. *)
let run_round (type ss cs m) ?keep spec (algo : (ss, cs, m) algo) (cap : m capture) ~seed ~idx
    ~traced =
  let params = params spec.value_len in
  let dir = Filename.concat (Lazy.force run_dir) (Printf.sprintf "r%d" idx) in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let addrs = addrs dir in
  let init = Algorithms.Common.initial_value params in
  (* ---- inputs, all from the seed ---- *)
  let rng = Random.State.make [| seed; idx; 0x51 |] in
  let written = Hashtbl.create 4096 in
  let source, arrivals =
    match spec.mode with
    | Closed { ops_per_client } ->
        let scripts =
          Array.init clients (fun c ->
              List.init ops_per_client (fun k ->
                  if Random.State.int rng 100 < spec.read_pct then Read
                  else begin
                    let v = make_value rng ~c ~k spec.value_len in
                    Hashtbl.replace written v ();
                    Write v
                  end))
        in
        (Transport.Client.Script scripts, [||])
    | Open { rate; round_s } ->
        let gen_seed = Random.State.bits rng in
        let gen () =
          Workload.Open_loop.make ~rate ~read_pct:spec.read_pct ~value_len:spec.value_len
            ~seed:gen_seed
        in
        (* the same generator, replayed here: arrival k is dispatched as
           the k-th invocation (the client's arrival queue is FIFO) *)
        let g = gen () and offs = ref [] in
        let rec collect () =
          let off, op = Workload.Open_loop.next g in
          if off <= round_s then begin
            (match op with Write v -> Hashtbl.replace written v () | Read -> ());
            offs := off :: !offs;
            collect ()
          end
        in
        collect ();
        ( Transport.Client.Load { gen = gen (); duration_s = round_s },
          Array.of_list (List.rev !offs) )
  in
  let total =
    match spec.mode with
    | Closed { ops_per_client } -> clients * ops_per_client
    | Open _ -> Array.length arrivals
  in
  (* ---- server process ---- *)
  let t_launch = now () in
  let child =
    spawn
      [ "server"; spec.algo_key; string_of_int spec.value_len; dir;
        (if spec.certified then "1" else "0"); (if traced then "1" else "0") ]
  in
  await_ready child;
  let setup_s = now () -. t_launch in
  (* ---- load: latency probe around the (possibly span-wrapped) algo ---- *)
  let inner = if traced then Spans.wrap algo else algo in
  let lat = Array.make total 0. and nlat = ref 0 in
  let lag = Array.make (Array.length arrivals) 0. and nlag = ref 0 in
  let due = Array.make clients 0. and ninv = ref 0 in
  let t0 = ref 0. in
  let capture_out envs =
    if traced && cap.n_cap < cap_limit then
      List.iter (fun (e : m envelope) -> cap.reqs <- e.payload :: cap.reqs) envs
  in
  let probe =
    {
      inner with
      on_invoke =
        (fun p ~me cs op ->
          let t = now () in
          let k = !ninv in
          incr ninv;
          let d = if k < Array.length arrivals then !t0 +. arrivals.(k) else t in
          due.(me) <- d;
          if k < Array.length lag then begin
            lag.(k) <- t -. d;
            nlag := k + 1
          end;
          let ((_, envs) as r) = inner.on_invoke p ~me cs op in
          capture_out envs;
          r);
      on_client_msg =
        (fun p ~me cs ~src msg ->
          let ((_, envs, resp) as r) = inner.on_client_msg p ~me cs ~src msg in
          (match resp with
          | Some _ when !nlat < total ->
              lat.(!nlat) <- now () -. due.(me);
              incr nlat
          | _ -> ());
          if traced && cap.n_cap < cap_limit then begin
            cap.replies <- msg :: cap.replies;
            cap.n_cap <- cap.n_cap + 1
          end;
          capture_out envs;
          r);
    }
  in
  let ctrace =
    if spec.certified then Some (Transport.Trace.open_writer (Filename.concat dir "client.trace"))
    else None
  in
  Spans.reset ();
  t0 := now ();
  let cs =
    Spans.in_region Spans.r_client (fun () ->
        Transport.Client.run probe params ~addrs ~clients ~source ~seed:(seed + idx)
          ?trace:ctrace ())
  in
  let cspans = Spans.snapshot () in
  let cproc = cspans.Spans.proc.(Spans.r_client) in
  Option.iter Transport.Trace.close ctrace;
  Unix.kill child.pid Sys.sigterm;
  let (srv : server_result) = result child ~timeout_s:30. in
  (* ---- checks ---- *)
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let validate () =
    List.fold_left
      (fun acc (_, r) ->
        match r with
        | Read_ack v when not (String.equal v init || Hashtbl.mem written v) -> acc + 1
        | Read_ack _ | Write_ack -> acc)
      0 cs.Transport.Client.responses
  in
  let bad_reads = validate () in
  (* One pass takes well under a millisecond, and on a shared host a
     single pass runs up to twice as slow as the program's own speed:
     time [validate_passes] more passes (each must agree) and keep the
     fastest. *)
  let pass_s =
    Array.init validate_passes (fun _ ->
        let t = now () in
        let b = validate () in
        let dt = now () -. t in
        if b <> bad_reads then failwith "validation is not deterministic";
        dt)
  in
  let validate_s = Array.fold_left Float.min infinity pass_s in
  if bad_reads > 0 then fail "%d reads returned a value never written" bad_reads;
  if cs.starved > 0 then fail "%d operations starved" cs.starved;
  if cs.no_progress > 0 then fail "%d no_progress operations" cs.no_progress;
  (* Client.run stops dispatching once the schedule's duration has
     passed, so open-loop arrivals due within its last select tick are
     never invoked; they are reported as the undispatched tail, and
     every invoked operation must complete. *)
  let attempted = cs.invoked in
  if attempted < total - (total / 50) then fail "%d of %d arrivals invoked" attempted total;
  if cs.completed <> attempted then fail "%d of %d operations completed" cs.completed attempted;
  if List.length cs.responses <> attempted then
    fail "%d responses for %d operations" (List.length cs.responses) attempted;
  let certify, trace_bytes =
    if not spec.certified then (None, 0)
    else begin
      let sfile = Filename.concat dir "server.trace"
      and cfile = Filename.concat dir "client.trace" in
      let bytes = file_size sfile + file_size cfile in
      let t = now () in
      let sev, cev =
        Spans.in_region Spans.r_trace_load (fun () ->
            (snd (Transport.Trace.load sfile), snd (Transport.Trace.load cfile)))
      in
      let load_s = now () -. t in
      let t = now () in
      let rep =
        Spans.in_region Spans.r_refine (fun () ->
            Transport.Refine.run inner params ~clients ~server_events:sev
              ~client_streams:[ cev ])
      in
      let replay_s = now () -. t in
      if not rep.Transport.Refine.ok then fail "refinement failed";
      if rep.bits_mismatches > 0 then fail "%d storage-bit mismatches" rep.bits_mismatches;
      if rep.completed_ops <> cs.completed then
        fail "refinement replayed %d of %d operations" rep.completed_ops cs.completed;
      if traced && cap.server_events = [] then begin
        cap.server_events <- List.filteri (fun i _ -> i < cap_limit) sev;
        cap.client_events <- List.filteri (fun i _ -> i < cap_limit) cev
      end;
      (Some (load_s, replay_s, rep), bytes)
    end
  in
  Option.iter
    (fun d ->
      List.iter
        (fun f -> if spec.certified then Sys.rename (Filename.concat dir f) (Filename.concat d f))
        [ "server.trace"; "client.trace" ])
    keep;
  rm_rf dir;
  let failed =
    match (!failures, certify) with
    | [], _ -> 0
    | _, Some (_, _, rep) when not rep.Transport.Refine.ok -> attempted
    | _ -> max 1 (bad_reads + cs.starved + (attempted - min attempted cs.completed))
  in
  {
    traced;
    attempted;
    failed;
    failures = List.rev !failures;
    cstats = { cs with responses = [] };
    cproc;
    cspans;
    srv;
    setup_s;
    lat = Array.sub lat 0 !nlat;
    lag = Array.sub lag 0 !nlag;
    offered = Array.length arrivals;
    check_s = (match certify with Some (l, r, _) -> l +. r | None -> validate_s);
    certify;
    trace_bytes;
  }

(* ----- a whole run ----- *)

let report : type ss cs m.
    name:string -> spec -> (ss, cs, m) algo -> m capture -> round list -> trace:bool ->
    seed:int -> outcome =
 fun ~name spec algo cap rounds ~trace ~seed ->
  let u = List.filter (fun r -> not r.traced) rounds
  and tr = List.filter (fun r -> r.traced) rounds in
  let attempted = sumi (List.map (fun r -> r.attempted) rounds)
  and failed = sumi (List.map (fun r -> r.failed) rounds) in
  List.iter (fun r -> List.iter (Printf.printf "FAILED %s: %s\n" name) r.failures) rounds;
  let ops rs = sumi (List.map (fun r -> r.cstats.Transport.Client.completed) rs) in
  let ops_u = ops u and ops_t = ops tr in
  let med f rs = median (List.map f rs) in
  let cpu_per_op r = (cpu_s r.cproc +. cpu_s r.srv.sproc) /. float_of_int (max 1 r.cstats.completed) in
  let best_cost f rs = best_cost (List.map f rs) and best_rate f rs = best_rate (List.map f rs) in
  let samples = List.fold_left (fun a r -> min a (Array.length r.lat)) max_int u in
  let throughput = best_rate (fun r -> float_of_int r.cstats.completed /. r.cstats.wall_s) u in
  let storage_norm = med (fun r -> r.srv.stats.Transport.Server.peak_norm) u in
  (* host facts *)
  let offered_rate, achieved =
    match spec.mode with
    | Open { round_s; _ } ->
        let off = med (fun r -> float_of_int r.offered /. round_s) u in
        (off, throughput)
    | Closed _ -> (0., throughput)
  in
  Printf.printf
    "host {\"workload\": %S, \"nproc\": %d, \"clients\": %d, \"rounds\": %d, \"traced_rounds\": %d, \"offered_ops_s\": %s, \"achieved_ops_s\": %s, \"latency_samples_per_round\": %d, \"undispatched_tail\": %d, \"attempted\": %d, \"failed\": %d, \"trace_fs\": %S}\n"
    name (Domain.recommended_domain_count ()) clients (List.length rounds) (List.length tr)
    (json_float offered_rate) (json_float achieved) samples
    (sumi (List.map (fun r -> r.offered - r.attempted) (List.filter (fun r -> r.offered > 0) rounds)))
    attempted failed
    (fs_type (Lazy.force run_dir));
  let ok_open =
    match spec.mode with
    | Closed _ -> true
    | Open { round_s; _ } ->
        (* a round whose backlog grew finishes long after its schedule *)
        List.for_all
          (fun r ->
            let achieved = float_of_int r.cstats.completed /. r.cstats.wall_s
            and offered = float_of_int r.offered /. round_s in
            let ok = achieved >= 0.98 *. offered in
            if not ok then
              Printf.printf "FAILED %s: achieved %.1f ops/s below offered %.1f ops/s\n" name
                achieved offered;
            ok)
          rounds
  in
  if not trace then begin
    metric "p50_ms" "ms" (1e3 *. best_cost (fun r -> quantile r.lat 0.5) u);
    metric "p99_ms" "ms" (1e3 *. best_cost (fun r -> quantile r.lat 0.99) u);
    metric "throughput_ops_s" "1/s" throughput;
    metric "cpu_us_per_op" "us" (1e6 *. best_cost cpu_per_op u);
    metric "storage_norm" "x" storage_norm;
    (* a validation is already the fastest of its passes: keep the
       fastest over the run, as model-check does for its pieces *)
    metric "check_s" "s"
      (if spec.certified then best_cost (fun r -> r.check_s) u
       else List.fold_left (fun a r -> Float.min a r.check_s) infinity u);
    metric "setup_s" "s" (med (fun r -> r.setup_s) rounds);
    metric "peak_rss_mb" "MB" (med (fun r -> float_of_int r.srv.sproc.hwm_kb /. 1024.) u)
  end
  else begin
    let sum_proc sel rs = List.fold_left (fun a r -> proc_add a (sel r)) zero_proc rs in
    let cp = sum_proc (fun r -> r.cproc) u and sp = sum_proc (fun r -> r.srv.sproc) u in
    let per_op x = per_f x ops_u in
    let per_op_i x = per x ops_u in
    let sum_i f = sumi (List.map f u) in
    let cs = List.fold_left (fun a r -> Spans.merge a r.cspans) (Spans.fresh ()) tr
    and ss = List.fold_left (fun a r -> Spans.merge a r.srv.sspans) (Spans.fresh ()) tr in
    let per_op_t x = if ops_t = 0 then 0. else 1e6 *. x /. float_of_int ops_t in
    (* counts *)
    let frames_in = sum_i (fun r -> r.cstats.frames_in)
    and frames_out = sum_i (fun r -> r.cstats.frames_out) in
    let frames = frames_in + frames_out in
    let server_events = sum_i (fun r -> r.srv.stats.trace_events)
    and client_events = sum_i (fun r -> r.cstats.trace_events) in
    (* out-of-band timings on captured inputs *)
    let reqs = Array.of_list cap.reqs and replies = Array.of_list cap.replies in
    let req_frames =
      Array.mapi
        (fun i m ->
          Transport.Frame.Req
            { client = i mod clients; seq = 1000 + i; ack = 999 + i; payload = Marshal.to_string m [] })
        reqs
    and reply_frames =
      Array.mapi
        (fun i m ->
          Transport.Frame.Reply
            { client = i mod clients; server = i mod n; seq = 1000 + i; req_applied = 1000 + i;
              payload = Marshal.to_string m [] })
        replies
    in
    let fr = Oob.frames ~reqs:req_frames ~replies:reply_frames in
    let marshal_rt = Oob.marshal_round_trip (Array.append reqs replies) in
    let digest_s = Oob.digest algo.encode_msg (Array.append reqs replies) in
    (* abd runs log no trace: time the codec on the events the trace
       would hold, built from the captured messages *)
    let digest_of m = Transport.Trace.msg_digest algo.encode_msg m in
    let server_evs =
      if cap.server_events <> [] then Array.of_list cap.server_events
      else
        Array.mapi
          (fun i m ->
            Transport.Trace.Apply
              { server = i mod n; src = Client (i mod clients); seq = i + 1;
                digest = digest_of m; bits = 1000 + i })
          reqs
    and client_evs =
      if cap.client_events <> [] then Array.of_list cap.client_events
      else
        Array.mapi
          (fun i m ->
            Transport.Trace.Del
              { client = i mod clients; server = i mod n; seq = i + 1; digest = digest_of m })
          replies
    in
    let s_to_line, s_of_line = Oob.trace_lines server_evs
    and c_to_line, c_of_line = Oob.trace_lines client_evs in
    let enc_1k, dec_1k = Oob.erasure ~seed in
    (* CAS codes at (5,3): one encode per write, one decode per read *)
    let coded = String.equal spec.algo_key "cas" in
    (* per-process breakdowns: layer self times + named remainder = CPU/op *)
    let reqs_per_op = per_op_i frames_out and replies_per_op = per_op_i frames_in in
    let s_algo = per_op_t (Spans.self_s ss Spans.r_server Spans.n_on_server_msg +. Spans.self_s ss Spans.r_server Spans.n_init_server)
    and s_bits = per_op_t (Spans.self_s ss Spans.r_server Spans.n_server_bits)
    and s_digest = per_op_t (Spans.sum_self ss Spans.r_server Spans.encode_names) in
    let s_lines = 1e6 *. s_to_line *. per_op_i server_events in
    let s_marshal = 1e6 *. marshal_rt *. 0.5 *. (reqs_per_op +. replies_per_op) in
    let s_frame = 1e6 *. ((fr.decode_req_s *. reqs_per_op) +. (fr.encode_reply_s *. replies_per_op)) in
    let s_sys = 1e6 *. per_op sp.sys_s and s_cpu = 1e6 *. per_op (cpu_s sp) in
    let s_rest = s_cpu -. (s_algo +. s_bits +. s_digest +. s_lines +. s_marshal +. s_frame +. s_sys) in
    let c_algo =
      per_op_t (Spans.sum_self cs Spans.r_client [ Spans.n_on_invoke; Spans.n_on_client_msg; Spans.n_init_client ])
    and c_digest = per_op_t (Spans.sum_self cs Spans.r_client Spans.encode_names) in
    let c_lines = 1e6 *. c_to_line *. per_op_i client_events in
    let c_marshal = 1e6 *. marshal_rt *. 0.5 *. (reqs_per_op +. replies_per_op) in
    let c_frame = 1e6 *. ((fr.encode_req_s *. reqs_per_op) +. (fr.decode_reply_s *. replies_per_op)) in
    let c_sys = 1e6 *. per_op cp.sys_s and c_cpu = 1e6 *. per_op (cpu_s cp) in
    let c_rest = c_cpu -. (c_algo +. c_digest +. c_lines +. c_marshal +. c_frame +. c_sys) in
    Printf.printf
      "breakdown server us/op: cpu %.3f = algorithms %.3f + storage %.3f + trace.digest %.3f + trace.line %.3f + codec.marshal %.3f + frame %.3f + conn.sys %.3f + server.self %.3f\n"
      s_cpu s_algo s_bits s_digest s_lines s_marshal s_frame s_sys s_rest;
    Printf.printf
      "breakdown client us/op: cpu %.3f = algorithms %.3f + trace.digest %.3f + trace.line %.3f + codec.marshal %.3f + frame %.3f + conn.sys %.3f + client.self %.3f\n"
      c_cpu c_algo c_digest c_lines c_marshal c_frame c_sys c_rest;
    let med_cpu rs = 1e6 *. best_cost cpu_per_op rs in
    let lower = Bounds.dominant_lower_bound (Bounds.params ~n ~f) ~nu:clients in
    let certified f = match u with r :: _ when Option.is_some r.certify -> med f u | _ -> 0. in
    let cert_field g r = match r.certify with Some c -> g c | None -> 0. in
    metric "conn.wakeups_per_op" "count" (per_op_i (cp.vol_cs + sp.vol_cs));
    metric "conn.syscalls_per_op" "count" (per_op_i (cp.syscr + cp.syscw + sp.syscr + sp.syscw));
    metric "conn.preempt_per_op" "count" (per_op_i (cp.invol_cs + sp.invol_cs));
    metric "conn.sys_us_per_op" "us" (s_sys +. c_sys);
    metric "frame.frames_per_op" "count" (per_op_i frames);
    metric "frame.bytes_per_op" "B" (per_op_i (sum_i (fun r -> r.cstats.bytes_in + r.cstats.bytes_out)));
    metric "frame.codec_ns_per_frame" "ns"
      (1e9 *. per_f
          (((fr.encode_req_s +. fr.decode_req_s) *. float_of_int frames_out)
          +. ((fr.encode_reply_s +. fr.decode_reply_s) *. float_of_int frames_in))
          frames);
    metric "codec.marshal_us_per_op" "us" (s_marshal +. c_marshal);
    metric "algorithms.server_us_per_op" "us" s_algo;
    metric "algorithms.client_us_per_op" "us" c_algo;
    metric "algorithms.encode_us_per_op" "us" (s_digest +. c_digest);
    metric "algorithms.encode_calls_per_op" "count"
      (per_f
         (float_of_int
            (Spans.sum_count ss Spans.r_server Spans.encode_names
            + Spans.sum_count cs Spans.r_client Spans.encode_names))
         ops_t);
    metric "trace.events_per_op" "count" (per_op_i (server_events + client_events));
    metric "trace.bytes_per_op" "B" (per_op_i (sum_i (fun r -> r.trace_bytes)));
    (* per event, weighted by each process' share of the events (the
       two halves when no trace is written) *)
    let weighted a b =
      let total = server_events + client_events in
      if total = 0 then 1e6 *. (a +. b) /. 2.
      else 1e6 *. ((a *. float_of_int server_events) +. (b *. float_of_int client_events))
           /. float_of_int total
    in
    metric "trace.line_us_per_event" "us" (weighted s_to_line c_to_line);
    metric "trace.parse_us_per_event" "us" (weighted s_of_line c_of_line);
    metric "trace.digest_us_per_event" "us" (1e6 *. digest_s);
    metric "refine.load_s" "s" (certified (cert_field (fun (l, _, _) -> l)));
    metric "refine.replay_s" "s" (certified (cert_field (fun (_, p, _) -> p)));
    metric "refine.us_per_event" "us"
      (certified (cert_field (fun (_, p, rep) -> 1e6 *. p /. float_of_int (max 1 rep.Transport.Refine.replayed))));
    metric "certify_s" "s" (certified (cert_field (fun (l, p, _) -> l +. p)));
    metric "erasure.encode_us_per_write" "us" (if coded then 1e6 *. enc_1k else 0.);
    metric "erasure.decode_us_per_read" "us" (if coded then 1e6 *. dec_1k else 0.);
    metric "erasure.encode_us_1k" "us" (1e6 *. enc_1k);
    metric "erasure.decode_us_1k" "us" (1e6 *. dec_1k);
    metric "storage.peak_total_bits" "bit" (med (fun r -> float_of_int r.srv.stats.peak_total_bits) u);
    metric "storage.peak_max_server_bits" "bit" (med (fun r -> float_of_int r.srv.stats.peak_max_server_bits) u);
    metric "storage.bound_ratio" "x" (storage_norm /. lower);
    metric "storage.bits_us_per_op" "us" s_bits;
    metric "server.cpu_us_per_op" "us" s_cpu;
    metric "server.self_us_per_op" "us" s_rest;
    metric "server.applies_per_op" "count" (per_op_i (sum_i (fun r -> r.srv.stats.applies)));
    metric "server.dedup_hits" "count" (float_of_int (sum_i (fun r -> r.srv.stats.dedup_hits)));
    metric "client.cpu_us_per_op" "us" c_cpu;
    metric "client.self_us_per_op" "us" c_rest;
    metric "client.retransmits" "count" (float_of_int (sum_i (fun r -> r.cstats.retransmits)));
    metric "client.dup_replies" "count" (float_of_int (sum_i (fun r -> r.cstats.dup_replies)));
    metric "client.reconnects" "count" (float_of_int (sum_i (fun r -> r.cstats.reconnects)));
    metric "client.wasted_frame_ratio" "ratio"
      (per (sum_i (fun r -> r.cstats.retransmits + r.cstats.dup_replies)) frames);
    metric "open_loop.achieved_over_offered" "ratio"
      (match spec.mode with
      | Open { round_s; _ } ->
          med
            (fun r ->
              float_of_int r.cstats.completed /. r.cstats.wall_s
              /. (float_of_int r.offered /. round_s))
            u
      | Closed _ -> 0.);
    metric "open_loop.dispatch_lag_ms" "ms"
      (match spec.mode with
      | Open _ -> 1e3 *. quantile (Array.concat (List.map (fun r -> r.lag) u)) 0.5
      | Closed _ -> 0.);
    metric "span_overhead_pct" "%" (100. *. ((med_cpu tr /. med_cpu u) -. 1.));
    metric "failed_pct" "%" (100. *. per failed attempted);
    let path = spans_path ~workload:name ~seed in
    Spans.write_out cs ~path ~process:"load";
    Spans.write_out ss ~path ~process:"server";
    Printf.printf "spans written to %s\n" path
  end;
  { ok = failed = 0 && ok_open; attempted; failed }

let run ~name spec ~seed ~seconds ~trace : outcome =
  Faults.Hammer.dispatch ~key:spec.algo_key ~canary:false
    {
      use =
        (fun algo ->
          let cap =
            { reqs = []; replies = []; server_events = []; client_events = []; n_cap = 0 }
          in
          let rounds = ref [] and idx = ref 0 in
          let t_start = now () in
          let min_rounds = if trace then 4 else 3 in
          while now () -. t_start < seconds || !idx < min_rounds do
            let traced = trace && !idx mod 2 = 1 in
            let r = run_round spec algo cap ~seed ~idx:!idx ~traced in
            Printf.printf
              "round %d traced=%b ops=%d wall_s=%.4f ops_s=%.1f cpu_us_per_op=%.3f setup_s=%.5f check_s=%.5f\n%!"
              !idx traced r.cstats.completed r.cstats.wall_s
              (float_of_int r.cstats.completed /. r.cstats.wall_s)
              (1e6 *. (cpu_s r.cproc +. cpu_s r.srv.sproc) /. float_of_int (max 1 r.cstats.completed))
              r.setup_s r.check_s;
            rounds := r :: !rounds;
            incr idx
          done;
          let rounds = List.rev !rounds in
          report ~name spec algo cap rounds ~trace ~seed);
    }
