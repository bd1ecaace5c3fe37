(* The benchmark's own tracing: in-memory spans aggregated per
   (region, name), written out at exit.

   A region is an outer span around one of the benchmark's calls into
   a layer (Server.serve, Client.run, Trace.load, Refine.run,
   Explore.run, Hammer.campaign); OS counters are sampled at its
   boundaries.  Inner spans come from [wrap], which puts a span on each
   transition of an algorithm record and on each encode_*/server_bits
   call.  Self time is a span's duration minus the time its child
   spans cover. *)

open Engine.Types

let regions =
  [|
    "none";
    "transport.server";
    "transport.client";
    "transport.trace_load";
    "transport.refine";
    "engine.explore";
    "faults.hammer";
  |]

let r_none = 0
let r_server = 1
let r_client = 2
let r_trace_load = 3
let r_refine = 4
let r_explore = 5
let r_hammer = 6

let names =
  [|
    "init_server";
    "init_client";
    "on_invoke";
    "on_client_msg";
    "on_server_msg";
    "server_bits";
    "encode_msg";
    "encode_server";
    "encode_client";
    "self";
  |]

let n_init_server = 0
let n_init_client = 1
let n_on_invoke = 2
let n_on_client_msg = 3
let n_on_server_msg = 4
let n_server_bits = 5
let n_encode_msg = 6
let n_encode_server = 7
let n_encode_client = 8
let n_self = 9

type snapshot = {
  count : int array array;  (** [region][name] *)
  total : float array array;  (** seconds *)
  self : float array array;  (** seconds, children excluded *)
  proc : Util.proc array;  (** OS counter deltas per region *)
}

let fresh () =
  let nr = Array.length regions and nn = Array.length names in
  {
    count = Array.make_matrix nr nn 0;
    total = Array.make_matrix nr nn 0.;
    self = Array.make_matrix nr nn 0.;
    proc = Array.make nr Util.zero_proc;
  }

let acc = ref (fresh ())
let reset () = acc := fresh ()
let snapshot () = !acc

let merge a b =
  let m f x y = Array.map2 (Array.map2 f) x y in
  {
    count = m ( + ) a.count b.count;
    total = m ( +. ) a.total b.total;
    self = m ( +. ) a.self b.self;
    proc = Array.map2 Util.proc_add a.proc b.proc;
  }

(* open-span stack: start time and time covered by children *)
let max_depth = 64
let st_start = Array.make max_depth 0.
let st_child = Array.make max_depth 0.
let depth = ref 0
let region = ref r_none

let enter () =
  let d = !depth in
  st_start.(d) <- Util.now ();
  st_child.(d) <- 0.;
  depth := d + 1

let leave name =
  let d = !depth - 1 in
  depth := d;
  let dur = Util.now () -. st_start.(d) in
  let a = !acc and r = !region in
  a.count.(r).(name) <- a.count.(r).(name) + 1;
  a.total.(r).(name) <- a.total.(r).(name) +. dur;
  a.self.(r).(name) <- a.self.(r).(name) +. (dur -. st_child.(d));
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) +. dur

let span name f =
  enter ();
  match f () with
  | v ->
      leave name;
      v
  | exception e ->
      leave name;
      raise e

(* An outer span; always on (it costs two /proc reads per call). *)
let in_region r f =
  let saved = !region in
  region := r;
  let p0 = Util.proc_self () in
  let finish () =
    leave n_self;
    let a = !acc in
    a.proc.(r) <- Util.proc_add a.proc.(r) (Util.proc_diff (Util.proc_self ()) p0);
    region := saved
  in
  enter ();
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let wrap (a : ('ss, 'cs, 'm) algo) : ('ss, 'cs, 'm) algo =
  {
    a with
    init_server = (fun p i -> span n_init_server (fun () -> a.init_server p i));
    init_client = (fun p i -> span n_init_client (fun () -> a.init_client p i));
    on_invoke = (fun p ~me cs op -> span n_on_invoke (fun () -> a.on_invoke p ~me cs op));
    on_client_msg =
      (fun p ~me cs ~src m ->
        span n_on_client_msg (fun () -> a.on_client_msg p ~me cs ~src m));
    on_server_msg =
      (fun p ~me ss ~src m ->
        span n_on_server_msg (fun () -> a.on_server_msg p ~me ss ~src m));
    server_bits = (fun p ss -> span n_server_bits (fun () -> a.server_bits p ss));
    encode_msg = (fun m -> span n_encode_msg (fun () -> a.encode_msg m));
    encode_server = (fun ss -> span n_encode_server (fun () -> a.encode_server ss));
    encode_client =
      (fun relab cs -> span n_encode_client (fun () -> a.encode_client relab cs));
  }

(* ----- queries ----- *)

let self_s s r n = s.self.(r).(n)

let sum_self s r ns = List.fold_left (fun acc n -> acc +. s.self.(r).(n)) 0. ns
let sum_count s r ns = List.fold_left (fun acc n -> acc + s.count.(r).(n)) 0 ns
let encode_names = [ n_encode_msg; n_encode_server; n_encode_client ]
let transition_names = [ n_init_server; n_init_client; n_on_invoke; n_on_client_msg; n_on_server_msg ]

(* Append one JSON line per non-empty (region, name) pair; [process]
   names the process the spans were recorded in. *)
let write_out s ~path ~process =
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
      Array.iteri
        (fun r row ->
          Array.iteri
            (fun n c ->
              if c > 0 then
                Printf.fprintf oc
                  "{\"process\": %S, \"region\": %S, \"span\": %S, \"count\": %d, \"total_s\": %s, \"self_s\": %s}\n"
                  process regions.(r) names.(n) c
                  (Util.json_float s.total.(r).(n))
                  (Util.json_float s.self.(r).(n)))
            row)
        s.count)
