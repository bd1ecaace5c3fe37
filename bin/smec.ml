(* smec — shared-memory-emulation storage-cost toolbox.

   Subcommands expose the reproduction entry points:

     smec bounds   -n 21 -f 10 --nu 3     closed-form bounds for a system
     smec figure1  -n 21 -f 10            the paper's Figure 1 series
     smec measured -n 21 -f 10 --nu-max 6 measured storage of CAS/ABD-MW
     smec census --theorem b1|41|51|65    the counting experiments
     smec simulate --algo abd ...         run a workload, check consistency *)

open Cmdliner

let n_arg =
  Arg.(value & opt int 21 & info [ "n" ] ~docv:"N" ~doc:"Number of servers.")

let f_arg =
  Arg.(value & opt int 10 & info [ "f" ] ~docv:"F" ~doc:"Failure tolerance.")

let nu_arg =
  Arg.(value & opt int 3 & info [ "nu" ] ~docv:"NU" ~doc:"Active write operations.")

let nu_max_arg =
  Arg.(value & opt int 16 & info [ "nu-max" ] ~docv:"NU" ~doc:"Largest nu plotted.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Scheduler seed.")

(* ----- bounds ----- *)

let bounds_cmd =
  let run n f nu v_bits =
    let p = Bounds.params ~n ~f in
    Printf.printf "N=%d f=%d nu=%d value=%g bits\n\n" n f nu v_bits;
    Printf.printf "%-42s %12s %14s\n" "bound" "normalized" "exact (bits)";
    Printf.printf "%-42s %12.4f %14.1f\n" "Thm B.1 (regular, universal)"
      (Bounds.norm_singleton p)
      (Bounds.singleton_total p ~v_bits);
    if f >= 2 then
      Printf.printf "%-42s %12.4f %14.1f\n" "Thm 4.1 (no gossip)"
        (Bounds.norm_no_gossip p)
        (Bounds.no_gossip_total p ~v_bits);
    Printf.printf "%-42s %12.4f %14.1f\n" "Thm 5.1 (universal, gossip ok)"
      (Bounds.norm_universal p)
      (Bounds.universal_total p ~v_bits);
    Printf.printf "%-42s %12.4f %14.1f\n" "Thm 6.5 (single value phase)"
      (Bounds.norm_single_phase p ~nu)
      (Bounds.single_phase_total p ~nu ~v_bits);
    Printf.printf "%-42s %12.4f %14.1f\n" "upper: replication (f+1)"
      (Bounds.norm_abd p) (Bounds.abd_total p ~v_bits);
    Printf.printf "%-42s %12.4f %14.1f\n" "upper: erasure coding"
      (Bounds.norm_erasure p ~nu)
      (Bounds.erasure_total p ~nu ~v_bits);
    Printf.printf "\nEC/replication crossover: nu = %d; gap in the 6.5 class at this nu: %.3f\n"
      (Bounds.crossover_nu p)
      (Bounds.gap_single_phase p ~nu)
  in
  let v_bits_arg =
    Arg.(
      value & opt float 8192.0
      & info [ "v-bits" ] ~docv:"BITS" ~doc:"log2 |V|, the value size in bits.")
  in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Evaluate every bound of the paper for one system.")
    Term.(const run $ n_arg $ f_arg $ nu_arg $ v_bits_arg)

(* ----- figure1 ----- *)

let figure1_cmd =
  let run n f nu_max =
    let p = Bounds.params ~n ~f in
    Format.printf "%a@." Bounds.pp_figure1 (Bounds.figure1 p ~nu_max)
  in
  Cmd.v
    (Cmd.info "figure1" ~doc:"Print the series of the paper's Figure 1.")
    Term.(const run $ n_arg $ f_arg $ nu_max_arg)

(* ----- measured ----- *)

let measured_cmd =
  let run n f nu_max seed =
    let rows = Core.figure1_measured ~n ~f ~nu_max ~value_len:256 ~seed () in
    Printf.printf "%4s  %12s  %12s  %12s  %12s\n" "nu" "CAS meas." "CAS model"
      "ABD-MW meas." "repl. model";
    List.iter
      (fun (r : Core.measured_row) ->
        Printf.printf "%4d  %12.3f  %12.3f  %12.3f  %12.3f\n" r.Core.nu
          r.Core.cas r.Core.cas_model r.Core.abd r.Core.abd_model)
      rows
  in
  let nu_max = Arg.(value & opt int 6 & info [ "nu-max" ] ~docv:"NU") in
  Cmd.v
    (Cmd.info "measured"
       ~doc:"Measure peak storage of CAS and multi-writer ABD vs concurrency.")
    Term.(const run $ n_arg $ f_arg $ nu_max $ seed_arg)

(* ----- census ----- *)

let census_cmd =
  let run theorem =
    match theorem with
    | "b1" -> Format.printf "%a@." Valency.Singleton.pp (Core.experiment_b1 ())
    | "41" -> Format.printf "%a@." Valency.Critical.pp (Core.experiment_41 ())
    | "51" -> Format.printf "%a@." Valency.Critical.pp (Core.experiment_51 ())
    | "65" -> Format.printf "%a@." Valency.Multi.pp (Core.experiment_65 ())
    | other ->
        Printf.eprintf "unknown theorem %S (use b1, 41, 51 or 65)\n" other;
        exit 1
  in
  let theorem =
    Arg.(
      value & opt string "b1"
      & info [ "theorem" ] ~docv:"THM" ~doc:"One of b1, 41, 51, 65.")
  in
  Cmd.v
    (Cmd.info "census"
       ~doc:"Run a counting experiment that verifies a theorem's argument.")
    Term.(const run $ theorem)

(* ----- simulate ----- *)

let simulate_cmd =
  let run algo_name n f writers readers seed =
    let params = Engine.Types.params ~n ~f ~k:(max 1 (n - (2 * f))) ~delta:writers ~value_len:8 () in
    let values = Workload.unique_values ~count:(3 * writers) ~len:8 ~seed in
    let scripts =
      Workload.mixed_scripts ~writers ~readers ~values ~reads_per_reader:3
    in
    let clients = writers + readers in
    let check (type ss cs m) (algo : (ss, cs, m) Engine.Types.algo) checker =
      let peak = Storage.create_peak () in
      let h =
        let c = Engine.Mconfig.make algo params ~clients in
        let observer c =
          Storage.peak_observe peak
            ~total:(Engine.Mconfig.total_storage_bits algo c)
            ~max_server:(Engine.Mconfig.max_storage_bits algo c)
        in
        let c = Workload.Arena.run_scripts ~observer algo c scripts ~seed in
        Consistency.History.of_events (Engine.Mconfig.history c)
      in
      Format.printf "%a@." Consistency.History.pp h;
      Format.printf "consistency: %a@."
        Consistency.Checker.pp_verdict
        (checker (Algorithms.Common.initial_value params) h);
      Printf.printf "peak storage: %d bits total, %d bits max per server\n"
        (Storage.peak_total peak)
        (Storage.peak_max_server peak)
    in
    match algo_name with
    | "abd" ->
        check Algorithms.Abd.algo (fun init h -> Consistency.Checker.atomic ~init h)
    | "abd-mw" ->
        check Algorithms.Abd_mw.algo (fun init h ->
            Consistency.Checker.atomic ~init h)
    | "cas" ->
        check Algorithms.Cas.algo (fun init h -> Consistency.Checker.atomic ~init h)
    | "gossip" ->
        check Algorithms.Gossip_rep.algo (fun init h ->
            Consistency.Checker.regular ~init h)
    | "swsr" ->
        check Algorithms.Abd.regular_algo (fun init h ->
            Consistency.Checker.regular ~init h)
    | other ->
        Printf.eprintf
          "unknown algorithm %S (use abd, abd-mw, cas, gossip or swsr)\n" other;
        exit 1
  in
  let algo =
    Arg.(
      value & opt string "abd"
      & info [ "algo" ] ~docv:"ALGO" ~doc:"abd, abd-mw, cas, gossip or swsr.")
  in
  let n = Arg.(value & opt int 5 & info [ "n" ] ~docv:"N") in
  let f = Arg.(value & opt int 2 & info [ "f" ] ~docv:"F") in
  let writers = Arg.(value & opt int 2 & info [ "writers" ] ~docv:"W") in
  let readers = Arg.(value & opt int 2 & info [ "readers" ] ~docv:"R") in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run a workload against an algorithm and check its history.")
    Term.(const run $ algo $ n $ f $ writers $ readers $ seed_arg)

(* ----- sweep ----- *)

let sweep_cmd =
  let run which =
    let grids =
      match which with
      | "b1" -> [ Valency.Sweep.singleton () ]
      | "41" -> [ Valency.Sweep.critical () ]
      | "65" -> [ Valency.Sweep.multi () ]
      | "all" ->
          [ Valency.Sweep.singleton (); Valency.Sweep.critical (); Valency.Sweep.multi () ]
      | other ->
          Printf.eprintf "unknown sweep %S (use b1, 41, 65 or all)\n" other;
          exit 1
    in
    List.iter
      (fun g ->
        Format.printf "%a@." Valency.Sweep.pp g;
        Printf.printf "all cells pass: %b\n\n" (Valency.Sweep.all_pass g))
      grids
  in
  let which =
    Arg.(value & opt string "all" & info [ "experiment" ] ~docv:"EXP" ~doc:"b1, 41, 65 or all.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Run a census experiment across an (n, f, |V|) grid.")
    Term.(const run $ which)

(* ----- conjecture ----- *)

let conjecture_cmd =
  let run () =
    let unmodified, modified = Core.experiment_65_conjecture () in
    Printf.printf
      "Theorem 6.5 adversary (unmodified) vs the two-phase protocol:\n\
       %d/%d vectors deadlock -- the protocol is outside the theorem's class.\n\n"
      (List.length unmodified.Valency.Multi.anomalies)
      unmodified.Valency.Multi.vectors;
    Format.printf
      "Modified adversary (withhold only the Theta(|V|)-sized messages):@.%a@."
      Valency.Multi.pp modified
  in
  Cmd.v
    (Cmd.info "conjecture"
       ~doc:"Probe the Section 6.5 conjecture on the two-phase-value protocol.")
    Term.(const run $ const ())

(* ----- explore ----- *)

let explore_cmd =
  let run algo_name n f domains max_states show_progress reduce_name spill_dir
      writers readers =
    let reduce =
      match Engine.Reduction.of_string reduce_name with
      | Ok r -> r
      | Error msg ->
          Printf.eprintf "--reduce: %s\n" msg;
          exit 2
    in
    if writers < 1 || readers < 0 || writers + readers < 2 then begin
      Printf.eprintf
        "need at least one writer and two clients total (got %d writers, %d \
         readers)\n"
        writers readers;
      exit 2
    end;
    let params =
      Engine.Types.params ~n ~f ~k:(max 1 (n - (2 * f))) ~delta:2 ~value_len:1 ()
    in
    let init = Algorithms.Common.initial_value params in
    (* writers first (distinct one-byte values), then readers: the
       default 1w/1r is the historical write || read scope *)
    let scripts =
      List.init (writers + readers) (fun c ->
          if c < writers then
            (c, [ Engine.Types.Write (String.make 1 (Char.chr (0x61 + c))) ])
          else (c, [ Engine.Types.Read ]))
    in
    let go (type ss cs m) (algo : (ss, cs, m) Engine.Types.algo) checker
        condition =
      let config = Engine.Config.make algo params ~clients:(writers + readers) in
      let progress =
        if show_progress then
          Some (fun states -> Printf.eprintf "\r%d states...%!" states)
        else None
      in
      let r =
        match
          Engine.Explore.run ~max_states ~domains ?progress ~reduce ?spill_dir
            algo config ~scripts
        with
        | r -> r
        | exception Invalid_argument msg ->
            (* an unusable --spill-dir (missing, unwritable, leftover
               runs) is a user error, not an internal one *)
            Printf.eprintf "explore: %s\n" msg;
            exit 2
      in
      if show_progress then Printf.eprintf "\r%!";
      let violations =
        List.filter_map
          (fun events ->
            match checker init (Consistency.History.of_events events) with
            | Consistency.Checker.Valid -> None
            | Consistency.Checker.Invalid why -> Some why)
          r.Engine.Explore.histories
      in
      let stats = r.Engine.Explore.stats in
      Printf.printf
        "%s n=%d f=%d, %dw || %dr, reduce=%s (%d domain%s): %d states, %d \
         terminal histories, closed=%b, %s violations=%d\n"
        algo.Engine.Types.name n f writers readers
        (Engine.Reduction.to_string reduce)
        domains
        (if domains = 1 then "" else "s")
        stats.Engine.Explore.states_explored stats.Engine.Explore.terminals
        (not stats.Engine.Explore.truncated)
        condition (List.length violations);
      (match stats.Engine.Explore.outcome with
      | Engine.Explore.Deadlock h ->
          Printf.printf "  DEADLOCK (%d stuck configurations); first history:\n"
            (List.length r.Engine.Explore.deadlocks);
          List.iter
            (fun e -> Format.printf "    %a@." Engine.Types.pp_event e)
            h
      | Engine.Explore.Closed | Engine.Explore.Truncated -> ());
      List.iter (fun why -> Printf.printf "  violation: %s\n" why) violations;
      if violations <> [] || r.Engine.Explore.deadlocks <> [] then exit 1
    in
    let atomic init h = Consistency.Checker.atomic ~init h in
    let regular init h = Consistency.Checker.regular ~init h in
    match algo_name with
    | "abd" -> go Algorithms.Abd.algo atomic "atomic"
    | "abd-mw" -> go Algorithms.Abd_mw.algo atomic "atomic"
    | "cas" -> go Algorithms.Cas.algo atomic "atomic"
    | "gossip" -> go Algorithms.Gossip_rep.algo regular "regular"
    | "swsr" -> go Algorithms.Abd.regular_algo regular "regular"
    | other ->
        Printf.eprintf
          "unknown algorithm %S (use abd, abd-mw, cas, gossip or swsr)\n" other;
        exit 1
  in
  let algo =
    Arg.(
      value & opt string "abd"
      & info [ "algo" ] ~docv:"ALGO" ~doc:"abd, abd-mw, cas, gossip or swsr.")
  in
  let n = Arg.(value & opt int 3 & info [ "n" ] ~docv:"N") in
  let f = Arg.(value & opt int 1 & info [ "f" ] ~docv:"F") in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"D"
          ~doc:"Worker domains exploring in parallel (sharded seen-set).")
  in
  let max_states =
    Arg.(value & opt int 250_000 & info [ "max-states" ] ~docv:"MAX")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ] ~doc:"Report the state count on stderr as it grows.")
  in
  let reduce =
    Arg.(
      value & opt string "none"
      & info [ "reduce" ] ~docv:"RED"
          ~doc:
            "State-space reduction: none (the oracle), dpor (sleep sets), sym \
             (server-symmetry canonicalization) or all.  Every choice yields \
             the same terminal/deadlock history sets on a closed space.")
  in
  let spill_dir =
    Arg.(
      value & opt (some string) None
      & info [ "spill-dir" ] ~docv:"DIR"
          ~doc:
            "Spill settled seen-set entries to sorted runs in $(docv) (must \
             exist, be writable, and hold no *.run files); enables closing \
             spaces larger than RAM.")
  in
  let writers =
    Arg.(
      value & opt int 1
      & info [ "writers" ] ~docv:"W"
          ~doc:"Concurrent single-write clients (distinct values).")
  in
  let readers =
    Arg.(
      value & opt int 1
      & info [ "readers" ] ~docv:"R" ~doc:"Concurrent single-read clients.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Exhaustively model-check a small instance over all interleavings, \
          optionally fanned out across domains, with optional DPOR/symmetry \
          reduction and an out-of-core seen-set.  Exits 1 when a terminal \
          history violates the consistency condition or the space holds a \
          deadlock (an operation that can never complete), 2 on a usage \
          error.")
    Term.(
      const run $ algo $ n $ f $ domains $ max_states $ progress $ reduce
      $ spill_dir $ writers $ readers)

(* ----- hammer ----- *)

let hammer_cmd =
  let run algo_name execs seed quick json replay_exec =
    let canary =
      match Sys.getenv_opt "SMEC_HAMMER_CANARY" with
      | Some "1" -> true
      | Some _ | None -> false
    in
    let algos =
      if String.equal algo_name "all" then None
      else if List.exists (String.equal algo_name) Faults.Hammer.algo_names
      then Some [ algo_name ]
      else begin
        Printf.eprintf "unknown algorithm %S (use all, %s)\n" algo_name
          (String.concat ", " Faults.Hammer.algo_names);
        exit 2
      end
    in
    match replay_exec with
    | Some exec ->
        let key =
          match algos with
          | Some [ key ] -> key
          | _ ->
              Printf.eprintf "--replay needs a single --algo, not \"all\"\n";
              exit 2
        in
        print_string (Faults.Hammer.replay ~algo:key ~exec ~seed ~canary)
    | None ->
        let execs = if quick then min execs 120 else execs in
        let report =
          Faults.Hammer.campaign ~execs ~seed ~canary ?algos ()
        in
        Format.printf "%a@." Faults.Hammer.pp_report report;
        (match json with
        | Some path ->
            let oc = open_out path in
            output_string oc (Faults.Hammer.report_to_json report);
            output_string oc "\n";
            close_out oc;
            Printf.printf "report written to %s\n" path
        | None -> ());
        let violated = Faults.Hammer.has_violations report in
        if canary then
          if violated then
            print_string "canary caught: the campaign detects the planted bug\n"
          else begin
            print_string "CANARY MISSED: the sabotaged ABD went undetected\n";
            exit 1
          end
        else if violated then exit 1
  in
  let algo =
    Arg.(
      value & opt string "all"
      & info [ "algo" ] ~docv:"ALGO"
          ~doc:"One of all, abd, abd-mw, cas, gossip-rep, awe.")
  in
  let execs =
    Arg.(
      value & opt int 1000
      & info [ "execs" ] ~docv:"N" ~doc:"Seeded executions per algorithm.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Cap at 120 executions per algorithm (CI gate).")
  in
  let json =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the JSON report to FILE.")
  in
  let replay =
    Arg.(
      value & opt (some int) None
      & info [ "replay" ] ~docv:"EXEC"
          ~doc:
            "Replay one campaign execution of the selected --algo and print \
             its plan, outcome and full history.")
  in
  Cmd.v
    (Cmd.info "hammer"
       ~doc:
         "Run the seeded fault-injection campaign: random/targeted/exhaustive \
          fault plans against every algorithm, consistency and liveness \
          checked, failing seeds shrunk to minimal counterexamples.")
    Term.(const run $ algo $ execs $ seed_arg $ quick $ json $ replay)

(* ----- trace ----- *)

let trace_cmd =
  let run algo_name n f seed =
    let params = Engine.Types.params ~n ~f ~k:(max 1 (n - (2 * f))) ~value_len:2 () in
    let chart (type ss cs m) (algo : (ss, cs, m) Engine.Types.algo) =
      let c = Engine.Config.make algo params ~clients:2 in
      let _, c = Engine.Config.invoke algo c ~client:0 (Engine.Types.Write "hi") in
      let _, c = Engine.Config.invoke algo c ~client:1 Engine.Types.Read in
      let rng = Engine.Driver.rng_of_seed seed in
      let trace, _ =
        Engine.Driver.run_trace algo c ~rng ~stop:(fun c ->
            Option.is_none (Engine.Config.pending_op c 0)
            && Option.is_none (Engine.Config.pending_op c 1))
      in
      Printf.printf
        "%s: write(\"hi\") at c0 concurrent with a read at c1 (seed %d)\n\n"
        algo.Engine.Types.name seed;
      print_string (Engine.Viz.render_chart algo trace);
      Printf.printf "\nstorage: %s\n" (Engine.Viz.storage_sparkline algo trace)
    in
    match algo_name with
    | "abd" -> chart Algorithms.Abd.algo
    | "abd-mw" -> chart Algorithms.Abd_mw.algo
    | "cas" -> chart Algorithms.Cas.algo
    | "gossip" -> chart Algorithms.Gossip_rep.algo
    | "swsr" -> chart Algorithms.Abd.regular_algo
    | "awe" -> chart Algorithms.Awe.algo
    | other ->
        Printf.eprintf "unknown algorithm %S\n" other;
        exit 1
  in
  let algo =
    Arg.(
      value & opt string "abd"
      & info [ "algo" ] ~docv:"ALGO" ~doc:"abd, abd-mw, cas, gossip, swsr or awe.")
  in
  let n = Arg.(value & opt int 3 & info [ "n" ] ~docv:"N") in
  let f = Arg.(value & opt int 1 & info [ "f" ] ~docv:"F") in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Draw one execution as an ASCII message-sequence chart.")
    Term.(const run $ algo $ n $ f $ seed_arg)

(* ----- wire runtime: serve / load / client / nemesis / refine ----- *)

let install_stop () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop = ref false in
  let h = Sys.Signal_handle (fun _ -> stop := true) in
  Sys.set_signal Sys.sigint h;
  Sys.set_signal Sys.sigterm h;
  fun () -> !stop

(* [delta] (the CAS garbage collector's bound on concurrent writes)
   must cover every client this deployment can serve, or servers GC
   coded symbols that in-flight readers still need and those reads
   starve on a healthy network.  Server and load invocations agree on
   it because both derive it from --clients. *)
let wire_params ~n ~f ~k ~value_len ~clients =
  let k = match k with Some k -> k | None -> max 1 (n - (2 * f)) in
  Engine.Types.params ~k ~n ~f ~value_len ~delta:(max 1 clients) ()

let wire_addrs ~n ~dir ~tcp =
  match (dir, tcp) with
  | Some d, None ->
      Array.init n (fun i ->
          Transport.Conn.Uds (Filename.concat d (Printf.sprintf "s%d.sock" i)))
  | None, Some hostbase -> (
      match String.rindex_opt hostbase ':' with
      | Some j -> (
          let host = String.sub hostbase 0 j in
          let base =
            String.sub hostbase (j + 1) (String.length hostbase - j - 1)
          in
          match int_of_string_opt base with
          | Some b when b > 0 && b + n < 65536 && String.length host > 0 ->
              Array.init n (fun i -> Transport.Conn.Tcp (host, b + i))
          | _ ->
              Printf.eprintf "--tcp: expected HOST:BASEPORT, got %S\n" hostbase;
              exit 2)
      | None ->
          Printf.eprintf "--tcp: expected HOST:BASEPORT, got %S\n" hostbase;
          exit 2)
  | Some _, Some _ ->
      Printf.eprintf "use either --dir or --tcp, not both\n";
      exit 2
  | None, None ->
      Printf.eprintf "need --dir DIR (unix sockets) or --tcp HOST:BASEPORT\n";
      exit 2

let check_algo_key key =
  if not (List.exists (String.equal key) Faults.Hammer.algo_names) then begin
    Printf.eprintf "unknown algorithm %S (use %s)\n" key
      (String.concat ", " Faults.Hammer.algo_names);
    exit 2
  end

let wire_algo_arg =
  Arg.(
    value & opt string "abd"
    & info [ "algo" ] ~docv:"ALGO" ~doc:"One of abd, abd-mw, cas, gossip-rep, awe.")

let wire_n_arg = Arg.(value & opt int 5 & info [ "n" ] ~docv:"N")
let wire_f_arg = Arg.(value & opt int 1 & info [ "f" ] ~docv:"F")

let wire_k_arg =
  Arg.(
    value & opt (some int) None
    & info [ "k" ] ~docv:"K" ~doc:"Erasure-code dimension (default max 1 (n-2f)).")

let value_len_arg =
  Arg.(
    value & opt int 16
    & info [ "value-len" ] ~docv:"BYTES" ~doc:"Length of every written value.")

let dir_arg =
  Arg.(
    value & opt (some string) None
    & info [ "dir" ] ~docv:"DIR"
        ~doc:"Unix-socket directory: server i listens at DIR/si.sock.")

let tcp_arg =
  Arg.(
    value & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:BASE" ~doc:"TCP: server i at port BASE+i.")

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write the wire trace for smec refine to FILE.")

let serve_cmd =
  let run algo_key n f k value_len clients dir tcp trace_path =
    check_algo_key algo_key;
    let params = wire_params ~n ~f ~k ~value_len ~clients in
    let addrs = wire_addrs ~n ~dir ~tcp in
    let canary =
      match Sys.getenv_opt "SMEC_SERVE_CANARY" with
      | Some "1" -> true
      | Some _ | None -> false
    in
    let stop = install_stop () in
    let trace = Option.map Transport.Trace.open_writer trace_path in
    Printf.printf "serve: algo=%s n=%d f=%d k=%d value_len=%d clients<=%d%s\n%!"
      algo_key n f params.Engine.Types.k value_len clients
      (if canary then "  [CANARY ARMED]" else "");
    let stats =
      Faults.Hammer.dispatch ~key:algo_key ~canary:false
        {
          use =
            (fun algo ->
              Transport.Server.serve algo params ~algo_key ~addrs ~clients
                ~canary ?trace ~stop ());
        }
    in
    Option.iter Transport.Trace.close trace;
    let bp = Bounds.params ~n ~f in
    Printf.printf
      "serve: applies=%d (gossip %d) dedup_hits=%d canary_fires=%d accepts=%d\n\
       serve: frames in/out %d/%d, bytes in/out %d/%d, trace events %d\n\
       serve: peak storage %d bits total, %d bits max-server, %.3f x value_len \
       (singleton lower bound %.3f)\n"
      stats.Transport.Server.applies stats.Transport.Server.gossip_applies
      stats.Transport.Server.dedup_hits stats.Transport.Server.canary_fires
      stats.Transport.Server.accepts stats.Transport.Server.frames_in
      stats.Transport.Server.frames_out stats.Transport.Server.bytes_in
      stats.Transport.Server.bytes_out stats.Transport.Server.trace_events
      stats.Transport.Server.peak_total_bits
      stats.Transport.Server.peak_max_server_bits
      stats.Transport.Server.peak_norm (Bounds.norm_singleton bp)
  in
  let clients =
    Arg.(
      value & opt int 16
      & info [ "clients" ] ~docv:"C" ~doc:"Upper bound on wire client ids.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Host all n servers of one emulated register on real sockets \
          (SMEC_SERVE_CANARY=1 plants a dedup double-apply for the \
          refinement harness to catch).  Stop with SIGINT/SIGTERM.")
    Term.(
      const run $ wire_algo_arg $ wire_n_arg $ wire_f_arg $ wire_k_arg
      $ value_len_arg $ clients $ dir_arg $ tcp_arg $ trace_arg)

let load_stats_json ~algo_key (s : Transport.Client.stats) =
  let ops_per_sec =
    if s.wall_s > 0.0 then float_of_int s.completed /. s.wall_s else 0.0
  in
  Printf.sprintf
    {|{"algo": "%s", "invoked": %d, "completed": %d, "late": %d, "starved": %d, "quorum_lost": %d, "client_cut_off": %d, "no_progress": %d, "retransmits": %d, "reconnects": %d, "dup_replies": %d, "frames_in": %d, "frames_out": %d, "wall_s": %.3f, "ops_per_sec": %.1f, "mean_latency_s": %.6f, "p50_s": %.6f, "p99_s": %.6f, "max_latency_s": %.6f}|}
    algo_key s.invoked s.completed s.late_completions s.starved s.quorum_lost
    s.client_cut_off s.no_progress s.retransmits s.reconnects s.dup_replies
    s.frames_in s.frames_out s.wall_s ops_per_sec s.mean_latency_s s.p50_s
    s.p99_s s.max_latency_s

let load_cmd =
  let run algo_key n f k value_len clients client_base dir tcp rate read_pct
      duration seed deadline retransmit trace_path json =
    check_algo_key algo_key;
    let params = wire_params ~n ~f ~k ~value_len ~clients in
    let addrs = wire_addrs ~n ~dir ~tcp in
    let (_ : unit -> bool) = install_stop () in
    let trace = Option.map Transport.Trace.open_writer trace_path in
    let gen =
      Workload.Open_loop.make ~rate ~read_pct ~value_len ~seed
    in
    let stats =
      Faults.Hammer.dispatch ~key:algo_key ~canary:false
        {
          use =
            (fun algo ->
              Transport.Client.run algo params ~addrs ~clients ~client_base
                ~source:
                  (Transport.Client.Load { gen; duration_s = duration })
                ~seed ~op_deadline_s:deadline ~retransmit_s:retransmit ?trace
                ());
        }
    in
    Option.iter Transport.Trace.close trace;
    print_string (load_stats_json ~algo_key stats);
    print_newline ();
    (match json with
    | Some path ->
        let oc = open_out path in
        output_string oc (load_stats_json ~algo_key stats);
        output_string oc "\n";
        close_out oc
    | None -> ());
    if stats.Transport.Client.no_progress > 0 then exit 1
  in
  let clients =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"C" ~doc:"Virtual clients in this process.")
  in
  let client_base =
    Arg.(
      value & opt int 0
      & info [ "client-base" ] ~docv:"BASE"
          ~doc:"First wire client id (distinct per load process).")
  in
  let rate =
    Arg.(
      value & opt float 500.0
      & info [ "rate" ] ~docv:"OPS" ~doc:"Open-loop arrival rate, ops/second.")
  in
  let read_pct =
    Arg.(
      value & opt int 50
      & info [ "read-pct" ] ~docv:"PCT" ~doc:"Percentage of reads.")
  in
  let duration =
    Arg.(
      value & opt float 5.0
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Load duration.")
  in
  let deadline =
    Arg.(
      value & opt float 5.0
      & info [ "deadline" ] ~docv:"SECONDS" ~doc:"Per-operation deadline.")
  in
  let retransmit =
    Arg.(
      value & opt float 0.25
      & info [ "retransmit" ] ~docv:"SECONDS"
          ~doc:"Base retransmission interval (backs off per link).")
  in
  let json =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the stats JSON to FILE.")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive open-loop read/write load against smec serve, with \
          supervised reconnects, deadlines and retransmission; prints a \
          stats JSON line.  Exit 1 on a no-progress starvation (a liveness \
          bug).")
    Term.(
      const run $ wire_algo_arg $ wire_n_arg $ wire_f_arg $ wire_k_arg
      $ value_len_arg $ clients $ client_base $ dir_arg $ tcp_arg $ rate
      $ read_pct $ duration $ seed_arg $ deadline $ retransmit $ trace_arg
      $ json)

let client_cmd =
  let run algo_key n f k value_len dir tcp client op_str seed deadline
      trace_path =
    check_algo_key algo_key;
    let params = wire_params ~n ~f ~k ~value_len ~clients:1 in
    let addrs = wire_addrs ~n ~dir ~tcp in
    let (_ : unit -> bool) = install_stop () in
    let op =
      if String.equal op_str "read" then Engine.Types.Read
      else
        match String.index_opt op_str ':' with
        | Some i when String.equal (String.sub op_str 0 i) "write" ->
            let v = String.sub op_str (i + 1) (String.length op_str - i - 1) in
            let v =
              if String.length v >= value_len then String.sub v 0 value_len
              else v ^ String.make (value_len - String.length v) '.'
            in
            Engine.Types.Write v
        | _ ->
            Printf.eprintf "--op: expected read or write:VALUE, got %S\n" op_str;
            exit 2
    in
    let trace = Option.map Transport.Trace.open_writer trace_path in
    let stats =
      Faults.Hammer.dispatch ~key:algo_key ~canary:false
        {
          use =
            (fun algo ->
              Transport.Client.run algo params ~addrs ~clients:1
                ~client_base:client
                ~source:(Transport.Client.Script [| [ op ] |])
                ~seed ~op_deadline_s:deadline ~max_wall_s:(deadline +. 5.0)
                ?trace ());
        }
    in
    Option.iter Transport.Trace.close trace;
    match stats.Transport.Client.responses with
    | (_, Engine.Types.Read_ack v) :: _ -> Printf.printf "read: %S\n" v
    | (_, Engine.Types.Write_ack) :: _ -> print_string "write: ok\n"
    | [] ->
        Printf.eprintf "operation did not complete (starved=%d: %s)\n"
          stats.Transport.Client.starved
          (if stats.Transport.Client.client_cut_off > 0 then
             "no server reachable"
           else if stats.Transport.Client.quorum_lost > 0 then "quorum lost"
           else "no progress");
        exit 1
  in
  let client =
    Arg.(
      value & opt int 0 & info [ "client" ] ~docv:"ID" ~doc:"Wire client id.")
  in
  let op =
    Arg.(
      value & opt string "read"
      & info [ "op" ] ~docv:"OP" ~doc:"read, or write:VALUE.")
  in
  let deadline =
    Arg.(
      value & opt float 5.0
      & info [ "deadline" ] ~docv:"SECONDS" ~doc:"Operation deadline.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Run one read or write against smec serve and print the result.")
    Term.(
      const run $ wire_algo_arg $ wire_n_arg $ wire_f_arg $ wire_k_arg
      $ value_len_arg $ dir_arg $ tcp_arg $ client $ op $ seed_arg $ deadline
      $ trace_arg)

let nemesis_cmd =
  let run n listen_dir listen_tcp forward_dir forward_tcp plan_str seed =
    let listen = wire_addrs ~n ~dir:listen_dir ~tcp:listen_tcp in
    let forward = wire_addrs ~n ~dir:forward_dir ~tcp:forward_tcp in
    let plan =
      match Faults.Plan.of_string plan_str with
      | p -> p
      | exception Invalid_argument msg ->
          Printf.eprintf "--plan: %s\n" msg;
          exit 2
    in
    let stop = install_stop () in
    Printf.printf "nemesis: %d proxies, plan %s\n%!" n
      (if Faults.Plan.is_empty plan then "(empty)"
       else Faults.Plan.to_string plan);
    let stats = Transport.Nemesis.run ~listen ~forward ~plan ~seed ~stop () in
    Printf.printf
      "nemesis: pairs=%d forwarded=%d dropped=%d duplicated=%d delayed=%d \
       reordered=%d severed=%d\n"
      stats.Transport.Nemesis.pairs_opened stats.Transport.Nemesis.forwarded
      stats.Transport.Nemesis.dropped stats.Transport.Nemesis.duplicated
      stats.Transport.Nemesis.delayed stats.Transport.Nemesis.reordered
      stats.Transport.Nemesis.severed
  in
  let listen_dir =
    Arg.(
      value & opt (some string) None
      & info [ "listen-dir" ] ~docv:"DIR" ~doc:"Proxy listens at DIR/si.sock.")
  in
  let listen_tcp =
    Arg.(
      value & opt (some string) None
      & info [ "listen-tcp" ] ~docv:"HOST:BASE")
  in
  let forward_dir =
    Arg.(
      value & opt (some string) None
      & info [ "forward-dir" ] ~docv:"DIR"
          ~doc:"Real servers at DIR/si.sock (smec serve --dir).")
  in
  let forward_tcp =
    Arg.(
      value & opt (some string) None
      & info [ "forward-tcp" ] ~docv:"HOST:BASE")
  in
  let plan =
    Arg.(
      value & opt string ""
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Fault plan (Faults.Plan syntax); only net@... faults act here, \
             with step/until in milliseconds, e.g. \
             'net@0..=drop:20;net@1000..3000=delay:10-50;net@2000=sever:s1'.")
  in
  Cmd.v
    (Cmd.info "nemesis"
       ~doc:
         "Frame-aware misbehaving proxy between smec load and smec serve: \
          drops, delays, duplicates, reorders and severs scheduled by a \
          fault plan.  Stop with SIGINT/SIGTERM.")
    Term.(
      const run $ wire_n_arg $ listen_dir $ listen_tcp $ forward_dir
      $ forward_tcp $ plan $ seed_arg)

let refine_cmd =
  let run server_trace client_traces =
    let load path =
      match Transport.Trace.load path with
      | r -> r
      | exception Invalid_argument msg ->
          Printf.eprintf "%s: %s\n" path msg;
          exit 2
    in
    let header, server_events =
      match load server_trace with
      | Some h, evs -> (h, evs)
      | None, _ ->
          Printf.eprintf "%s: no trace header (need the serve-side trace)\n"
            server_trace;
          exit 2
    in
    let client_streams = List.map (fun p -> snd (load p)) client_traces in
    let report =
      Faults.Hammer.dispatch ~key:header.Transport.Trace.algo ~canary:false
        {
          use =
            (fun algo ->
              Transport.Refine.run algo header.Transport.Trace.params
                ~clients:header.Transport.Trace.clients ~server_events
                ~client_streams);
        }
    in
    Format.printf "%a@." Transport.Refine.pp_report report;
    if not report.Transport.Refine.ok then exit 1
  in
  let server_trace =
    Arg.(
      required
      & opt (some string) None
      & info [ "server-trace" ] ~docv:"FILE" ~doc:"Trace from smec serve.")
  in
  let client_traces =
    Arg.(
      value & opt_all string []
      & info [ "client-trace" ] ~docv:"FILE"
          ~doc:"Trace from smec load (repeatable, one per load process).")
  in
  Cmd.v
    (Cmd.info "refine"
       ~doc:
         "Replay wire traces through the pure engine: every live apply must \
          pop the matching engine channel head and every response must \
          match — exactly-once delivery, FIFO channels and storage-bit \
          accounting certified.  Exit 1 on any violation.")
    Term.(const run $ server_trace $ client_traces)

let main =
  Cmd.group
    (Cmd.info "smec" ~version:Core.version
       ~doc:
         "Storage lower bounds for shared memory emulation \
          (Cadambe-Wang-Lynch, PODC 2016): bounds, experiments, simulations.")
    [
      bounds_cmd;
      figure1_cmd;
      measured_cmd;
      census_cmd;
      simulate_cmd;
      sweep_cmd;
      conjecture_cmd;
      explore_cmd;
      hammer_cmd;
      trace_cmd;
      serve_cmd;
      load_cmd;
      client_cmd;
      nemesis_cmd;
      refine_cmd;
    ]

let () = exit (Cmd.eval main)
