(* The model-check workload: no socket in its timed part.  Each
   activity runs in its own process (this binary re-executed), so that
   peak RSS and CPU are the activity's own:

   - Explore.run on cas n=3 f=1, one writer || one reader, unreduced
     (200,794 states, 10 terminal histories), once per run;
   - the same scope under Reduction.all (35,995 states), once per run;
   - one short round of the cas-certified workload (200 operations,
     wire trace on in both processes), whose traces are kept;
   - then passes until the time is up, each a search of abd n=3 f=1
     1w || 1r under Reduction.all (3,965 states, checked against its own
     unreduced search of 20,104 states, run once), a certification of
     the kept traces (Trace.load + Refine.run) and one run of a fixed
     set of Hammer.campaign chunks over all five algorithms.

   The gated timings come from the passes.  Every pass repeats the same
   deterministic work, timed in pieces of about a millisecond: ten
   states of the search, [calls_per_piece] calls into the algorithm
   during the replay, ten executions of the campaign.  On a shared
   host a piece runs at the program's own speed or up to twice as slow,
   switching within milliseconds, so each piece keeps its fastest time
   over the passes.  All searches use the arena engine, the forward
   default of [smec explore]. *)

open Util

let expected_unreduced = 200_794
let expected_reduced = 35_995
let expected_terminals = 10

(* the repeated small search and its oracle *)
let small_unreduced = 20_104
let small_reduced = 3_965

(* states per timed piece of the repeated search *)
let segment = 10

type explore_result = {
  states : int;
  terminals : int;
  closed : bool;
  deadlock : bool;
  keys : string list;  (** sorted terminal history keys *)
  violations : int;
  wall_s : float;
  seg_s : float array;  (** time of each [segment] states, then of the rest *)
  eproc : proc;
  espans : Spans.snapshot;
}

let explore_child = function
  | [ algo_name; reduce_name; traced; timed ] ->
      let go (type ss cs m) (algo : (ss, cs, m) Engine.Types.algo) =
        let algo = if String.equal traced "1" then Spans.wrap algo else algo in
        let params = Engine.Types.params ~n:3 ~f:1 ~k:1 ~delta:2 ~value_len:1 () in
        let reduce =
          if String.equal reduce_name "all" then Engine.Reduction.all else Engine.Reduction.none
        in
        let config = Engine.Config.make algo params ~clients:2 in
        let scripts = [ (0, [ Engine.Types.Write "a" ]); (1, [ Engine.Types.Read ]) ] in
        let init = Algorithms.Common.initial_value params in
        let marks = ref [] in
        let progress =
          if String.equal timed "1" then Some (fun _ -> marks := now () :: !marks) else None
        in
        send_ready ();
        let t = now () in
        let r =
          Spans.in_region Spans.r_explore (fun () ->
              Engine.Explore.run ~reduce ~engine:Engine.Engine_sig.Arena ?progress
                ~progress_interval:segment algo config ~scripts)
        in
        let t_end = now () in
        let seg_s =
          if Option.is_none progress then [||]
          else begin
            let m = Array.of_list (List.rev (t_end :: !marks)) in
            Array.mapi (fun i x -> x -. if i = 0 then t else m.(i - 1)) m
          end
        in
        let violations =
          List.length
            (List.filter
               (fun h ->
                 not
                   (Consistency.Checker.is_valid
                      (Consistency.Checker.atomic ~init (Consistency.History.of_events h))))
               r.Engine.Explore.histories)
        in
        let st = r.Engine.Explore.stats in
        let espans = Spans.snapshot () in
        send_result
          {
            states = st.Engine.Explore.states_explored;
            terminals = st.Engine.Explore.terminals;
            closed = not st.Engine.Explore.truncated;
            deadlock =
              (match st.Engine.Explore.outcome with Engine.Explore.Deadlock _ -> true | _ -> false);
            keys = List.map Engine.Explore.history_key r.Engine.Explore.histories;
            violations;
            wall_s = t_end -. t;
            seg_s;
            eproc = espans.Spans.proc.(Spans.r_explore);
            espans;
          }
      in
      if String.equal algo_name "cas" then go Algorithms.Cas.algo else go Algorithms.Abd.algo
  | _ -> failwith "explore child: bad arguments"

(* ----- certification of a kept cas trace ----- *)

let cert_spec =
  { (List.assoc "cas-certified" Wire.specs) with Wire.mode = Wire.Closed { ops_per_client = 25 } }

let calls_per_piece = 512

(* [a] with [tick] called before every call into it. *)
let ticking tick (a : ('ss, 'cs, 'm) Engine.Types.algo) : ('ss, 'cs, 'm) Engine.Types.algo =
  {
    a with
    init_server = (fun p i -> tick (); a.init_server p i);
    init_client = (fun p i -> tick (); a.init_client p i);
    on_invoke = (fun p ~me cs op -> tick (); a.on_invoke p ~me cs op);
    on_client_msg = (fun p ~me cs ~src m -> tick (); a.on_client_msg p ~me cs ~src m);
    on_server_msg = (fun p ~me ss ~src m -> tick (); a.on_server_msg p ~me ss ~src m);
    server_bits = (fun p ss -> tick (); a.server_bits p ss);
    encode_msg = (fun m -> tick (); a.encode_msg m);
    encode_server = (fun ss -> tick (); a.encode_server ss);
    encode_client = (fun relab cs -> tick (); a.encode_client relab cs);
  }

type certify_result = {
  load_s : float;
  replay_seg_s : float array;  (** time of each [calls_per_piece] calls, then of the rest *)
  cok : bool;
  mismatches : int;
  completed : int;
  replayed : int;
}

let certify_child = function
  | [ dir ] ->
      Faults.Hammer.dispatch ~key:cert_spec.Wire.algo_key ~canary:false
        {
          use =
            (fun algo ->
              let calls = ref 0 and marks = ref [] in
              let tick () =
                incr calls;
                if !calls mod calls_per_piece = 0 then marks := now () :: !marks
              in
              let algo = ticking tick algo in
              send_ready ();
              let t = now () in
              let sev = snd (Transport.Trace.load (Filename.concat dir "server.trace")) in
              let cev = snd (Transport.Trace.load (Filename.concat dir "client.trace")) in
              let t1 = now () in
              let rep =
                Transport.Refine.run algo (Wire.params cert_spec.value_len) ~clients:Wire.clients
                  ~server_events:sev ~client_streams:[ cev ]
              in
              let t_end = now () in
              let m = Array.of_list (List.rev (t_end :: !marks)) in
              send_result
                {
                  load_s = t1 -. t;
                  replay_seg_s = Array.mapi (fun i x -> x -. if i = 0 then t1 else m.(i - 1)) m;
                  cok = rep.Transport.Refine.ok;
                  mismatches = rep.bits_mismatches;
                  completed = rep.completed_ops;
                  replayed = rep.replayed;
                });
        }
  | _ -> failwith "certify child: bad arguments"

(* One pass of the campaign: the same [chunks] chunks of [chunk]
   executions (one per plan class) every pass, chunk c on algorithm
   c mod 5 with a seed drawn from --seed and c. *)
type hammer_result = {
  wall : float array;  (** per chunk, seconds *)
  cpu : float array;  (** per chunk, seconds of user + sys *)
  deliveries : int;
  hviolations : int;
  peak_norm : float;  (** max over algorithms of the campaign peak *)
}

let chunk = 10
let chunks = 1000
let algos = Array.of_list Faults.Hammer.algo_names
let chunk_algo c = c mod Array.length algos

let hammer_child = function
  | [ seed ] ->
      let seed = int_of_string seed in
      let wall = Array.make chunks 0. and cpu = Array.make chunks 0. in
      let deliveries = ref 0 and violations = ref 0 and peak = ref 0. in
      send_ready ();
      Spans.in_region Spans.r_hammer (fun () ->
          for c = 0 to chunks - 1 do
            let c0 = Unix.times () and t = now () in
            let rep =
              Faults.Hammer.campaign ~execs:chunk ~seed:(Hashtbl.hash (seed, c))
                ~algos:[ algos.(chunk_algo c) ] ()
            in
            wall.(c) <- now () -. t;
            let c1 = Unix.times () in
            cpu.(c) <-
              c1.Unix.tms_utime -. c0.Unix.tms_utime +. (c1.Unix.tms_stime -. c0.Unix.tms_stime);
            List.iter
              (fun (r : Faults.Hammer.algo_report) ->
                deliveries := !deliveries + r.deliveries;
                violations := !violations + List.length r.violations;
                peak := Float.max !peak r.peak_norm)
              rep.Faults.Hammer.algos
          done);
      send_result
        { wall; cpu; deliveries = !deliveries; hviolations = !violations; peak_norm = !peak }
  | _ -> failwith "hammer child: bad arguments"

(* ----- parent ----- *)

(* Spawn a child and time launch-to-ready. *)
let launch args =
  let t = now () in
  let c = spawn args in
  await_ready c;
  (now () -. t, c)

type pass = {
  small : explore_result;
  cert : certify_result;
  ham : hammer_result;
  setups : float list;
}

(* Per piece, the fastest time over the passes. *)
let piece_min (xs : float array list) =
  match xs with
  | [] -> [||]
  | x :: rest -> List.fold_left (Array.map2 Float.min) (Array.copy x) rest

let sumf = Array.fold_left ( +. ) 0.

(* The short certified round; its traces go to [keep]. *)
type certified = {
  c_ops : int;
  c_events : int;  (** server + client trace events *)
  c_bytes : int;
  c_failures : string list;
}

let certified_round ~seed ~keep =
  Faults.Hammer.dispatch ~key:cert_spec.Wire.algo_key ~canary:false
    {
      use =
        (fun algo ->
          let cap =
            { Wire.reqs = []; replies = []; server_events = []; client_events = []; n_cap = 0 }
          in
          let r = Wire.run_round ~keep cert_spec algo cap ~seed ~idx:0 ~traced:false in
          {
            c_ops = r.Wire.cstats.Transport.Client.completed;
            c_events = r.srv.stats.Transport.Server.trace_events + r.cstats.trace_events;
            c_bytes = r.trace_bytes;
            c_failures = r.failures;
          });
    }

(* The two cas searches run once: the unreduced one is the oracle the
   reduced one is checked against, and together they take ~13 s.  The
   rest of the run repeats passes, so the gated timings are sampled
   across the whole run. *)
let run ~seed ~seconds ~trace : Wire.outcome =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let setups = ref [] in
  let explore ?(timed = false) algo reduce traced =
    let setup, c =
      launch
        [ "explore"; algo; reduce; (if traced then "1" else "0"); (if timed then "1" else "0") ]
    in
    setups := setup :: !setups;
    (result c ~timeout_s:170. : explore_result)
  in
  let check_explore label (r : explore_result) expected =
    if r.states <> expected then fail "%s: %d states, expected %d" label r.states expected;
    if r.terminals <> expected_terminals then
      fail "%s: %d terminal histories, expected %d" label r.terminals expected_terminals;
    if not r.closed then fail "%s: search truncated" label;
    if r.deadlock then fail "%s: deadlock" label;
    if r.violations > 0 then fail "%s: %d atomicity violations" label r.violations
  in
  let check_same label (oracle : explore_result) (r : explore_result) =
    if not (List.equal String.equal oracle.keys r.keys) then
      fail "%s: reduced and unreduced terminal-history sets differ" label
  in
  let t_start = now () in
  let full = explore "cas" "none" false in
  check_explore "cas unreduced" full expected_unreduced;
  let red = explore "cas" "all" false in
  check_explore "cas reduced" red expected_reduced;
  check_same "cas" full red;
  let small_oracle = explore "abd" "none" false in
  check_explore "abd unreduced" small_oracle small_unreduced;
  (* the traced twins of both cas searches give the per-state layer split *)
  let traced = if trace then Some (explore "cas" "none" true, explore "cas" "all" true) else None in
  let cert_dir = Filename.concat (Lazy.force run_dir) "cert" in
  Unix.mkdir cert_dir 0o755;
  let cert = certified_round ~seed ~keep:cert_dir in
  List.iter (fail "certified cas round: %s") cert.c_failures;
  let passes = ref [] and k = ref 0 in
  while !k < 3 || now () -. t_start < seconds do
    let small = explore ~timed:true "abd" "all" false in
    check_explore "abd reduced" small small_reduced;
    check_same "abd" small_oracle small;
    let sc, cc = launch [ "certify"; cert_dir ] in
    let (cr : certify_result) = result cc ~timeout_s:170. in
    if not cr.cok then fail "certification of the kept cas trace failed";
    if cr.mismatches > 0 then fail "certification: %d storage-bit mismatches" cr.mismatches;
    if cr.completed <> cert.c_ops then
      fail "certification replayed %d of %d operations" cr.completed cert.c_ops;
    let sh, hc = launch [ "hammer"; string_of_int seed ] in
    let (ham : hammer_result) = result hc ~timeout_s:170. in
    if ham.hviolations > 0 then fail "hammer: %d violations" ham.hviolations;
    passes := { small; cert = cr; ham; setups = [ sc; sh ] } :: !passes;
    incr k
  done;
  let passes = List.rev !passes in
  let npass = List.length passes in
  let execs = npass * chunks * chunk in
  let violations = sumi (List.map (fun p -> p.ham.hviolations) passes) in
  let wall = piece_min (List.map (fun p -> p.ham.wall) passes)
  and cpu = piece_min (List.map (fun p -> p.ham.cpu) passes) in
  let pieces label sel =
    let xs = List.map sel passes in
    let n = Array.length (List.hd xs) in
    if List.exists (fun x -> Array.length x <> n) xs then begin
      fail "%s: the passes split into different numbers of pieces" label;
      [||]
    end
    else piece_min xs
  in
  let segs = pieces "abd search" (fun p -> p.small.seg_s) in
  let replay = pieces "certification" (fun p -> p.cert.replay_seg_s) in
  let load_s = List.fold_left (fun a p -> Float.min a p.cert.load_s) infinity passes in
  let certify_s = load_s +. sumf replay in
  let per_exec = Array.map (fun w -> w /. float_of_int chunk) wall in
  let hammer_rate = float_of_int (chunks * chunk) /. sumf wall in
  let small_s = sumf segs in
  List.iter (Printf.printf "FAILED model-check: %s\n") (List.rev !failures);
  let attempted = execs + 3 + (3 * npass) + cert.c_ops
  and failed = violations + List.length !failures in
  Printf.printf
    "host {\"workload\": \"model-check\", \"nproc\": %d, \"passes\": %d, \"hammer_execs\": %d, \"latency_samples\": %d, \"search_pieces\": %d, \"certify_pieces\": %d, \"certified_ops\": %d, \"attempted\": %d, \"failed\": %d, \"explore_states\": [%d, %d, %d, %d]}\n"
    (Domain.recommended_domain_count ()) npass execs chunks (Array.length segs) (Array.length replay) cert.c_ops attempted failed
    full.states red.states small_oracle.states small_reduced;
  List.iteri
    (fun i p ->
      Printf.printf "pass %d abd_reduced_s=%.4f certify_s=%.4f hammer_execs_s=%.1f\n" i
        p.small.wall_s
        (p.cert.load_s +. sumf p.cert.replay_seg_s)
        (float_of_int (chunks * chunk) /. sumf p.ham.wall))
    passes;
  Printf.printf
    "explore_s %.4f explore_reduced_s %.4f abd_reduced_s %.5f certify_s %.5f hammer_execs_s %.1f\n"
    full.wall_s red.wall_s small_s certify_s hammer_rate;
  if not trace then begin
    metric "p50_ms" "ms" (1e3 *. quantile per_exec 0.5);
    metric "p99_ms" "ms" (1e3 *. quantile per_exec 0.99);
    metric "throughput_ops_s" "1/s" hammer_rate;
    metric "cpu_us_per_op" "us" (1e6 *. sumf cpu /. float_of_int (chunks * chunk));
    metric "storage_norm" "x" (median (List.map (fun p -> p.ham.peak_norm) passes));
    metric "check_s" "s" (small_s +. certify_s);
    metric "setup_s" "s" (median (!setups @ List.concat_map (fun p -> p.setups) passes));
    metric "peak_rss_mb" "MB" (float_of_int full.eproc.hwm_kb /. 1024.)
  end
  else begin
    let per_state (r : explore_result) ns =
      1e6 *. Spans.sum_self r.espans Spans.r_explore ns /. float_of_int r.states
    in
    let tfull, tred = Option.get traced in
    metric "explore_s" "s" full.wall_s;
    metric "explore_reduced_s" "s" red.wall_s;
    metric "hammer_execs_s" "1/s" hammer_rate;
    metric "explore.states_per_s" "1/s" (float_of_int full.states /. full.wall_s);
    metric "explore.algo_us_per_state" "us" (per_state tfull Spans.transition_names);
    metric "explore.encode_us_per_state" "us" (per_state tfull Spans.encode_names);
    metric "explore.encode_calls_per_state" "count"
      (per (Spans.sum_count tfull.espans Spans.r_explore Spans.encode_names) tfull.states);
    metric "explore.self_us_per_state" "us"
      (1e6 *. Spans.self_s tfull.espans Spans.r_explore Spans.n_self /. float_of_int tfull.states);
    metric "explore.peak_rss_mb" "MB" (float_of_int full.eproc.hwm_kb /. 1024.);
    metric "reduction.state_ratio" "ratio" (per full.states red.states);
    metric "explore_reduced.states_per_s" "1/s" (float_of_int red.states /. red.wall_s);
    metric "explore_reduced.algo_us_per_state" "us" (per_state tred Spans.transition_names);
    metric "explore_reduced.encode_us_per_state" "us" (per_state tred Spans.encode_names);
    Array.iteri
      (fun a name ->
        let e = ref 0 and t = ref 0. in
        Array.iteri
          (fun c w ->
            if chunk_algo c = a then begin
              e := !e + chunk;
              t := !t +. w
            end)
          wall;
        metric ("hammer.execs_per_s." ^ name) "1/s" (if !t > 0. then float_of_int !e /. !t else 0.))
      algos;
    let replayed = match passes with p :: _ -> p.cert.replayed | [] -> 0 in
    metric "trace.events_per_op" "count" (per cert.c_events cert.c_ops);
    metric "trace.bytes_per_op" "B" (per cert.c_bytes cert.c_ops);
    metric "refine.load_s" "s" load_s;
    metric "refine.replay_s" "s" (sumf replay);
    metric "refine.us_per_event" "us" (1e6 *. per_f (sumf replay) replayed);
    metric "certify_s" "s" certify_s;
    metric "hammer.deliveries_per_exec" "count"
      (per (sumi (List.map (fun p -> p.ham.deliveries) passes)) execs);
    metric "span_overhead_pct" "%"
      (100. *. (((tfull.wall_s +. tred.wall_s) /. (full.wall_s +. red.wall_s)) -. 1.));
    metric "failed_pct" "%" (100. *. per failed attempted);
    let path = spans_path ~workload:"model-check" ~seed in
    Spans.write_out tfull.espans ~path ~process:"explore";
    Spans.write_out tred.espans ~path ~process:"explore-reduced";
    Printf.printf "spans written to %s\n" path
  end;
  { Wire.ok = failed = 0; attempted; failed }
