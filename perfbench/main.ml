(* Benchmark entry point.

     main.exe --workload W --seed N --seconds S --trace 0|1

   runs one workload and prints, as the last stdout line, one JSON
   object {correct, attempted, failed, metrics}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  Earlier lines
   give the host facts, failures and (traced) the per-process CPU
   breakdowns.  Exit status 0 when every output check passed, 1 when
   one failed (the result line still printed), 2 on a usage error.
   [--child ...] is the re-executed child mode (server / explore /
   hammer processes). *)

let workloads = [ "abd-closed"; "abd-open"; "cas-certified"; "model-check" ]

let end_to_end =
  [ ("p50_ms", "ms"); ("p99_ms", "ms"); ("throughput_ops_s", "1/s"); ("cpu_us_per_op", "us");
    ("storage_norm", "x"); ("check_s", "s"); ("setup_s", "s"); ("peak_rss_mb", "MB") ]

(* Per-layer metrics a workload does not exercise read 0. *)
let per_layer =
  [ ("conn.wakeups_per_op", "count"); ("conn.syscalls_per_op", "count");
    ("conn.preempt_per_op", "count"); ("conn.sys_us_per_op", "us");
    ("frame.frames_per_op", "count"); ("frame.bytes_per_op", "B");
    ("frame.codec_ns_per_frame", "ns"); ("codec.marshal_us_per_op", "us");
    ("algorithms.server_us_per_op", "us"); ("algorithms.client_us_per_op", "us");
    ("algorithms.encode_us_per_op", "us"); ("algorithms.encode_calls_per_op", "count");
    ("trace.events_per_op", "count"); ("trace.bytes_per_op", "B");
    ("trace.line_us_per_event", "us"); ("trace.parse_us_per_event", "us");
    ("trace.digest_us_per_event", "us"); ("refine.load_s", "s"); ("refine.replay_s", "s");
    ("refine.us_per_event", "us"); ("certify_s", "s"); ("erasure.encode_us_per_write", "us");
    ("erasure.decode_us_per_read", "us"); ("erasure.encode_us_1k", "us");
    ("erasure.decode_us_1k", "us"); ("storage.peak_total_bits", "bit");
    ("storage.peak_max_server_bits", "bit"); ("storage.bound_ratio", "x");
    ("storage.bits_us_per_op", "us"); ("server.cpu_us_per_op", "us");
    ("server.self_us_per_op", "us"); ("server.applies_per_op", "count");
    ("server.dedup_hits", "count"); ("client.cpu_us_per_op", "us");
    ("client.self_us_per_op", "us"); ("client.retransmits", "count");
    ("client.dup_replies", "count"); ("client.reconnects", "count");
    ("client.wasted_frame_ratio", "ratio"); ("open_loop.achieved_over_offered", "ratio");
    ("open_loop.dispatch_lag_ms", "ms"); ("explore_s", "s"); ("explore_reduced_s", "s");
    ("hammer_execs_s", "1/s"); ("explore.states_per_s", "1/s");
    ("explore.algo_us_per_state", "us"); ("explore.encode_us_per_state", "us");
    ("explore.encode_calls_per_state", "count"); ("explore.self_us_per_state", "us");
    ("explore.peak_rss_mb", "MB"); ("reduction.state_ratio", "ratio");
    ("explore_reduced.states_per_s", "1/s"); ("explore_reduced.algo_us_per_state", "us");
    ("explore_reduced.encode_us_per_state", "us") ]
  @ List.map (fun a -> ("hammer.execs_per_s." ^ a, "1/s")) Faults.Hammer.algo_names
  @ [ ("hammer.deliveries_per_exec", "count"); ("span_overhead_pct", "%"); ("failed_pct", "%") ]

let usage msg =
  Printf.eprintf "%s\nusage: main.exe --workload {%s} --seed N --seconds S --trace 0|1\n" msg
    (String.concat "," workloads);
  exit 2

let parse args =
  let rec go acc = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        go ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> usage (Printf.sprintf "unexpected argument %S" a)
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage ("missing --" ^ k) in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage ("bad --" ^ k) in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ("unknown workload " ^ workload);
  let trace = int "trace" in
  if trace <> 0 && trace <> 1 then usage "--trace must be 0 or 1";
  let seconds = int "seconds" in
  if seconds < 1 then usage "--seconds must be >= 1";
  (workload, int "seed", float_of_int seconds, trace = 1)

let print_result ~correct ~attempted ~failed ~names =
  let recorded = !Util.metrics in
  List.iter
    (fun (n, u, _) ->
      match List.assoc_opt n names with
      | Some u' when String.equal u u' -> ()
      | _ -> Printf.eprintf "warning: metric %s (%s) is not declared with that unit\n" n u)
    recorded;
  let fields =
    List.map
      (fun (name, unit) ->
        let v =
          match List.find_opt (fun (n, _, _) -> String.equal n name) recorded with
          | Some (_, _, v) -> v
          | None -> 0.
        in
        Printf.printf "metric %-36s %14.6g %s\n" name v unit;
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Util.json_string name)
          (Util.json_float v) (Util.json_string unit))
      names
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let () =
  match Array.to_list Sys.argv with
  | _ :: "--child" :: kind :: args -> (
      match kind with
      | "server" -> Wire.server_child args
      | "explore" -> Mc.explore_child args
      | "hammer" -> Mc.hammer_child args
      | "certify" -> Mc.certify_child args
      | _ -> exit 2)
  | _ :: args ->
      let workload, seed, seconds, trace = parse args in
      at_exit Util.kill_all;
      let outcome =
        try
          match List.assoc_opt workload Wire.specs with
          | Some spec -> Wire.run ~name:workload spec ~seed ~seconds ~trace
          | None -> Mc.run ~seed ~seconds ~trace
        with e ->
          Util.kill_all ();
          Util.rm_rf (Lazy.force Util.run_dir);
          Printf.eprintf "benchmark error: %s\n%!" (Printexc.to_string e);
          exit 1
      in
      Util.rm_rf (Lazy.force Util.run_dir);
      print_result ~correct:outcome.ok ~attempted:outcome.attempted ~failed:outcome.failed
        ~names:(if trace then per_layer else end_to_end);
      exit (if outcome.ok then 0 else 1)
  | [] -> exit 2
