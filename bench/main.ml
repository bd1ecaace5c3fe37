(* Benchmark and reproduction harness.

   Running this executable regenerates every evaluation artifact of the
   paper (there is exactly one figure, Figure 1, and no numbered
   tables; the theorem formulas and the census experiments are the rest
   of the "evaluation"):

   - figure1              : the five curves of Figure 1 (analytic)
   - figure1-measured     : measured peak storage of CAS / ABD-MW vs nu
   - census-b1            : Theorem B.1 counting experiment
   - census-41            : Theorem 4.1 critical-pair experiment
   - census-51            : Theorem 5.1 (gossip) experiment
   - census-65            : Theorem 6.5 staged multi-writer experiment
   - census-65-conjecture : Section 6.5's conjecture on the two-phase protocol
   - sweep-n              : bounds as N grows (Section 2 discussion)
   - crossover            : EC-vs-replication crossover (Section 7)
   - sweep-f-measured     : CAS storage vs failure density
   - convergence          : exact bounds -> normalized coefficients
   - op-costs             : message complexity of the protocols
   - sweep-census         : the counting experiments across an (n,f,|V|) grid
   - ablation-*           : the design decisions DESIGN.md calls out

   A Bechamel microbenchmark section then times the computational
   kernels behind each experiment family, and the `coding` section
   measures the GF(256) kernel data plane (encode/decode MB/s, kernel
   vs retained scalar reference) across an (n, k) x shard-size grid.

   `--json FILE` additionally writes the machine-readable rows of the
   coding / sched / explore sections to FILE (see BENCH_coding.json). *)

let line () = print_endline (String.make 78 '-')

let section name =
  line ();
  Printf.printf "== %s ==\n" name;
  line ()

(* ----- machine-readable output (--json) -----

   Sections with throughput numbers worth tracking across commits
   (coding, sched, explore) push one serialized object per row; when
   [--json FILE] was given the collected rows are written to FILE at
   exit. *)

let json_out : string option ref = ref None
let json_coding : string list ref = ref []
let json_sched : string list ref = ref []
let json_explore : string list ref = ref []
let json_hammer : string list ref = ref []
let json_engine : string list ref = ref []
let json_serve : string list ref = ref []

(* only sections that actually pushed rows appear in the file, so a
   targeted run (`main.exe hammer --json BENCH_hammer.json`) writes a
   file scoped to that section *)
let write_json path =
  let arr rows = String.concat ",\n    " (List.rev rows) in
  let sections =
    List.filter
      (fun (_, rows) -> match !rows with [] -> false | _ :: _ -> true)
      [
        ("coding", json_coding);
        ("sched", json_sched);
        ("explore", json_explore);
        ("hammer", json_hammer);
        ("engine", json_engine);
        ("serve", json_serve);
      ]
  in
  let oc = open_out path in
  Printf.fprintf oc "{\n%s\n}\n"
    (String.concat ",\n"
       (List.map
          (fun (name, rows) ->
            Printf.sprintf "  %S: [\n    %s\n  ]" name (arr !rows))
          sections));
  close_out oc;
  Printf.printf "bench: wrote %s\n" path

(* ----- Figure 1 (analytic) ----- *)

let figure1 () =
  section "figure1: normalized total-storage bounds, N=21 f=10 (paper Figure 1)";
  Format.printf "%a@." Bounds.pp_figure1 (Core.figure1 ());
  let p = Core.paper_params in
  Printf.printf
    "ABD upper bound (f+1) = %.3f; EC crossover at nu = %d; Thm 6.5 caps at %.3f\n"
    (Bounds.norm_abd p) (Bounds.crossover_nu p)
    (Bounds.norm_single_phase p ~nu:(10 + 1))

(* ----- Figure 1 (measured companion) ----- *)

let print_measured ~n ~f rows =
  Printf.printf "n=%d f=%d (k = n - 2f = %d)\n" n f (n - (2 * f));
  Printf.printf "%4s  %12s  %12s  %12s  %12s\n" "nu" "CAS meas." "CAS model"
    "ABD-MW meas." "repl. model";
  List.iter
    (fun (r : Core.measured_row) ->
      Printf.printf "%4d  %12.3f  %12.3f  %12.3f  %12.3f\n" r.Core.nu r.Core.cas
        r.Core.cas_model r.Core.abd r.Core.abd_model)
    rows

let figure1_measured () =
  section "figure1-measured: peak storage (x log2|V|) of CAS and ABD-MW vs nu";
  print_measured ~n:21 ~f:10 (Core.figure1_measured ~nu_max:6 ~value_len:256 ());
  print_endline "";
  print_measured ~n:21 ~f:5
    (Core.figure1_measured ~f:5 ~nu_max:6 ~value_len:264 ());
  print_endline
    "(Shape check against Figure 1: CAS grows linearly in nu with slope n/k\n\
     while replication stays flat at n; their crossing reproduces the EC/ABD\n\
     crossover.  At the paper's f=10, k = n - 2f = 1 and erasure coding\n\
     degenerates to replication -- EC's advantage vanishes as f ~ n/2, the\n\
     phenomenon the paper's Question 2 and Theorem 6.5 are about.)"

(* ----- Census experiments ----- *)

let census_b1 () =
  section "census-b1: Theorem B.1 counting experiment";
  List.iter
    (fun v ->
      let r = Core.experiment_b1 ~v () in
      Format.printf "%a@.@." Valency.Singleton.pp r)
    [ 2; 4; 8 ]

let census_41 () =
  section "census-41: Theorem 4.1 critical-pair experiment (no gossip)";
  let r = Core.experiment_41 () in
  Format.printf "%a@." Valency.Critical.pp r

let census_51 () =
  section "census-51: Theorem 5.1 critical-pair experiment (server gossip)";
  let r = Core.experiment_51 () in
  Format.printf "%a@." Valency.Critical.pp r

let census_65 () =
  section "census-65: Theorem 6.5 staged multi-writer experiment";
  let r = Core.experiment_65 () in
  Format.printf "%a@." Valency.Multi.pp r

let census_65_conjecture () =
  section
    "census-65-conjecture: Section 6.5 conjecture on the two-phase protocol";
  let unmodified, modified = Core.experiment_65_conjecture () in
  Printf.printf
    "unmodified Theorem 6.5 adversary vs awe-two-phase: %d/%d vectors deadlock\n"
    (List.length unmodified.Valency.Multi.anomalies)
    unmodified.Valency.Multi.vectors;
  print_endline
    "(expected: ALL -- two-phase-value protocols are outside the theorem's\n\
     class, reproduced executably)";
  Format.printf "@.modified adversary (withhold only Theta(|V|) messages):@.%a@."
    Valency.Multi.pp modified

(* ----- Sweeps ----- *)

let sweep_n () =
  section "sweep-n: normalized bounds as N grows (f = 10 fixed, then f = N/2 - 1)";
  Printf.printf "%6s %6s  %10s %10s %10s %10s\n" "N" "f" "Thm B.1" "Thm 4.1"
    "Thm 5.1" "Thm6.5(3)";
  List.iter
    (fun n ->
      let p = Bounds.params ~n ~f:10 in
      Printf.printf "%6d %6d  %10.3f %10.3f %10.3f %10.3f\n" n 10
        (Bounds.norm_singleton p) (Bounds.norm_no_gossip p)
        (Bounds.norm_universal p)
        (Bounds.norm_single_phase p ~nu:3))
    [ 12; 15; 21; 30; 50; 100; 500 ];
  print_endline "";
  List.iter
    (fun n ->
      let f = (n / 2) - 1 in
      let p = Bounds.params ~n ~f in
      Printf.printf "%6d %6d  %10.3f %10.3f %10.3f %10.3f\n" n f
        (Bounds.norm_singleton p) (Bounds.norm_no_gossip p)
        (Bounds.norm_universal p)
        (Bounds.norm_single_phase p ~nu:3))
    [ 12; 20; 40; 80 ];
  print_endline
    "(With f proportional to N the universal bounds stay O(1) x log2|V|\n\
     while replication costs Theta(f): the gap Question 2 asks about.)"

let crossover () =
  section "crossover: where erasure coding stops beating replication";
  Printf.printf "%6s %6s  %10s  %14s\n" "N" "f" "crossover" "gap at nu=f+1";
  List.iter
    (fun (n, f) ->
      let p = Bounds.params ~n ~f in
      Printf.printf "%6d %6d  %10d  %14.3f\n" n f (Bounds.crossover_nu p)
        (Bounds.gap_single_phase p ~nu:(f + 1)))
    [ (21, 10); (10, 2); (30, 5); (100, 10); (7, 3) ]

(* measured f-sweep: CAS storage at fixed nu as the failure density
   grows (k = n - 2f shrinks) *)
let sweep_f_measured () =
  section "sweep-f-measured: CAS peak storage vs f at nu = 2 (n = 21)";
  Printf.printf "%4s %4s  %12s  %12s  %12s\n" "f" "k" "CAS meas."
    "(nu+1)n/k" "Thm 6.5 floor";
  List.iter
    (fun f ->
      let k = 21 - (2 * f) in
      let cas =
        Core.measure_storage ~algo:Algorithms.Cas.algo ~n:21 ~f ~k ~nu:2
          ~value_len:(21 * 12) ~seed:11
      in
      let p = Bounds.params ~n:21 ~f in
      Printf.printf "%4d %4d  %12.3f  %12.3f  %12.3f\n" f k cas
        (float_of_int (3 * 21) /. float_of_int k)
        (Bounds.norm_single_phase p ~nu:2))
    [ 1; 3; 5; 7; 9; 10 ];
  print_endline
    "(As f approaches n/2 the code dimension collapses and coded storage\n\
     explodes toward replication levels, while the lower-bound floor rises:\n\
     the two curves squeeze together, which is Figure 1's regime.)"

(* convergence of the exact finite-|V| bounds to the normalized
   coefficients as values grow (the |V| -> infinity of Figure 1) *)
let convergence () =
  section "convergence: exact bounds / v_bits -> normalized coefficients";
  let p = Core.paper_params in
  Printf.printf "%10s  %12s %12s %12s   (limits: %.4f %.4f %.4f)\n" "v_bits"
    "Thm B.1" "Thm 4.1" "Thm 5.1" (Bounds.norm_singleton p)
    (Bounds.norm_no_gossip p) (Bounds.norm_universal p);
  List.iter
    (fun v_bits ->
      Printf.printf "%10.0f  %12.4f %12.4f %12.4f\n" v_bits
        (Bounds.singleton_total p ~v_bits /. v_bits)
        (Bounds.no_gossip_total p ~v_bits /. v_bits)
        (Bounds.universal_total p ~v_bits /. v_bits))
    [ 8.0; 64.0; 1024.0; 8192.0; 1e6 ];
  print_endline
    "(The o(log2 |V|) corrections vanish: a byte-sized register already pays\n\
     most of the asymptotic price, a kilobyte pays essentially all of it.)"

(* ----- Operation costs (communication complexity of the upper-bound
   protocols) ----- *)

let op_costs () =
  section "op-costs: message complexity of the emulation protocols (n=5)";
  Printf.printf "%-18s  %16s  %16s\n" "algorithm" "write (dlv+queued)"
    "read (dlv+queued)";
  let row (type ss cs m) name (algo : (ss, cs, m) Engine.Types.algo) params =
    let v = String.make params.Engine.Types.value_len 'x' in
    let w =
      Metrics.isolated_op_cost algo params ~op:(Engine.Types.Write v)
        ~warm:false ~seed:1
    in
    let r = Metrics.isolated_op_cost algo params ~op:Engine.Types.Read ~warm:true ~seed:2 in
    Printf.printf "%-18s  %8d+%-7d  %8d+%-7d\n" name w.Metrics.deliveries
      w.Metrics.in_flight r.Metrics.deliveries r.Metrics.in_flight
  in
  let rep = Engine.Types.params ~n:5 ~f:2 ~value_len:16 () in
  let cas = Engine.Types.params ~n:5 ~f:1 ~k:3 ~delta:2 ~value_len:15 () in
  row "abd (atomic)" Algorithms.Abd.algo rep;
  row "swsr-regular" Algorithms.Abd.regular_algo rep;
  row "abd-mw" Algorithms.Abd_mw.algo rep;
  row "gossip-rep" Algorithms.Gossip_rep.algo rep;
  row "cas" Algorithms.Cas.algo cas;
  row "awe-two-phase" Algorithms.Awe.algo cas;
  print_endline
    "(Replication writes finish in one round trip; CAS pays three phases and\n\
     AWE four -- the protocol structure Assumptions 1-3 of Section 6 are\n\
     about, made measurable.)"

(* ----- Sweeps of the census experiments ----- *)

let sweep_census () =
  section "sweep-census: every census experiment across an (n, f, |V|) grid";
  List.iter
    (fun grid ->
      Format.printf "%a@." Valency.Sweep.pp grid;
      Printf.printf "all cells pass: %b\n\n" (Valency.Sweep.all_pass grid))
    [ Valency.Sweep.singleton (); Valency.Sweep.critical (); Valency.Sweep.multi () ]

(* ----- Ablations (the design decisions DESIGN.md calls out) ----- *)

(* 1. probe seed-bundle size: the valency probe under-approximates an
   existential over schedules; how many seeds does the critical-pair
   search need in practice? *)
let ablation_seeds () =
  section "ablation-seeds: probe bundle size vs census success";
  let params = Engine.Types.params ~n:3 ~f:1 ~value_len:1 () in
  Printf.printf "%8s  %10s  %10s\n" "seeds" "injective" "anomalies";
  List.iter
    (fun seeds ->
      let r =
        Valency.Critical.run ~seeds Algorithms.Abd.regular_algo params
          ~mode:Valency.Critical.No_gossip ~domain:[ "a"; "b"; "c" ]
      in
      Printf.printf "%8d  %10b  %10d\n" (List.length seeds)
        r.Valency.Critical.injective
        (List.length r.Valency.Critical.anomalies))
    [ [ 1 ]; [ 1; 7 ]; [ 1; 7; 42; 1337 ]; [ 1; 2; 3; 4; 5; 6; 7; 8 ] ];
  print_endline
    "(Quorum protocols are schedule-insensitive at the probed points, so even\n\
     a single seed suffices here; the bundle guards against protocols whose\n\
     reads race. This justifies the sampled-probe design.)"

(* 2. CAS garbage-collection depth delta: storage is (delta+1)-bounded
   but liveness needs delta >= active writes *)
let ablation_delta () =
  section "ablation-delta: CAS gc depth vs storage and liveness (nu = 3 writers)";
  let nu = 3 in
  Printf.printf "%8s  %16s  %10s\n" "delta" "peak storage (xV)" "completed";
  List.iter
    (fun delta ->
      let p = Engine.Types.params ~n:5 ~f:1 ~k:3 ~delta ~value_len:90 () in
      let algo = Algorithms.Cas.algo in
      let values = Workload.unique_values ~count:nu ~len:90 ~seed:5 in
      let peak = Storage.create_peak () in
      let observer = Storage.peak_observer algo peak in
      let c = Engine.Config.make algo p ~clients:nu in
      let completed =
        match
          Workload.concurrent_writes ~observer ~max_steps:300_000 algo c ~values
            ~seed:6
        with
        | (_ : _ Engine.Config.t) -> true
        | exception Failure _ -> false
      in
      Printf.printf "%8d  %16.3f  %10b\n" delta
        (Storage.normalized peak ~value_len:90)
        completed)
    [ 1; 2; 3; 4 ];
  print_endline
    "(Storage grows with delta while delta < nu caps what coexists; at\n\
     delta >= nu the window no longer binds.  Liveness held even for small\n\
     delta in this schedule -- the delta >= nu requirement is worst-case.)"

(* 3. persistent branching vs replay-from-scratch for valency probes *)
let ablation_branching () =
  section "ablation-branching: persistent configs vs replaying executions";
  let params = Engine.Types.params ~n:3 ~f:1 ~value_len:1 () in
  let algo = Algorithms.Abd.regular_algo in
  let build () =
    let c = Engine.Config.make algo params ~clients:2 in
    let c = Engine.Config.fail_server c 2 in
    let rng = Engine.Driver.rng_of_seed 1 in
    let c = Engine.Driver.write_exn algo c ~client:0 ~value:"a" ~rng in
    let p0, _ = Engine.Driver.run_to_quiescence algo c ~rng in
    let _, c = Engine.Config.invoke algo p0 ~client:0 (Engine.Types.Write "b") in
    Engine.Driver.run_trace algo c ~rng ~stop:(fun c ->
        Engine.Config.pending_op c 0 = None)
  in
  let trace, _ = build () in
  let probe point =
    ignore
      (Valency.Probe.returnable algo point ~reader:1
         ~frozen:[ Engine.Types.Client 0 ] ~gossip_drain:false)
  in
  let reps = 200 in
  let t0 = Sys.time () in
  for _ = 1 to reps do
    List.iter probe trace
  done;
  let branch_time = Sys.time () -. t0 in
  let t0 = Sys.time () in
  for _ = 1 to reps do
    (* replaying: rebuild the whole execution for every probed point *)
    List.iteri (fun i _ ->
        let trace, _ = build () in
        probe (List.nth trace i))
      trace
  done;
  let replay_time = Sys.time () -. t0 in
  Printf.printf
    "probing all %d points x%d: persistent branch %.3fs, replay %.3fs (%.1fx)\n"
    (List.length trace) reps branch_time replay_time
    (replay_time /. Float.max branch_time 1e-9);
  print_endline
    "(Persistent configurations make point-branching a pointer copy; replaying\n\
     pays the whole prefix per probe.  The gap widens with execution length.)"

(* ----- Coding kernel throughput ----- *)

(* The GF(256) data plane under CAS/AWE: encode and decode MB/s on the
   word-wide kernel versus the retained byte-at-a-time reference, over
   the paper-relevant code shapes.  Every cell first asserts that the
   kernel and the reference produce byte-identical codewords and
   decodes (that assertion is the whole point of `coding-quick`, the
   CI mode: correctness gating without the timing). *)

let coding_grid = [ (5, 3); (9, 3); (21, 11) ]
let coding_shards = [ 1024; 65536 ]

(* throughput of [f], in payload MB/s, timed over >= 50 ms of reps
   after one warm-up call (which absorbs pair-table and decode-plan
   builds: the steady state is what the data plane sees) *)
let time_mbps ~bytes f =
  f ();
  let t0 = Unix.gettimeofday () in
  let reps = ref 0 in
  let elapsed = ref 0.0 in
  while !elapsed < 0.05 do
    f ();
    incr reps;
    elapsed := Unix.gettimeofday () -. t0
  done;
  float_of_int (bytes * !reps) /. !elapsed /. 1e6

let run_coding ~quick () =
  section
    (if quick then
       "coding-quick: kernel vs reference byte-identity (assertions only)"
     else "coding: GF(256) kernel encode/decode MB/s vs scalar reference");
  if not quick then
    Printf.printf "%-22s %12s %12s %12s %12s\n" "code / shard" "enc kern"
      "enc ref" "dec kern" "dec ref";
  List.iter
    (fun (n, k) ->
      List.iter
        (fun shard ->
          let c = Erasure.create ~n ~k in
          let value_len = k * shard in
          let value =
            String.init value_len (fun i -> Char.chr ((i * 131 + n + k) land 0xff))
          in
          let kernel_syms = Erasure.encode c value in
          let ref_syms = Erasure.reference_encode c value in
          if not (Array.for_all2 Bytes.equal kernel_syms ref_syms) then
            failwith "coding: kernel/reference encode mismatch";
          (* survivors: the last k symbols — all-parity for (9,3), mixed
             for the others — so decode exercises a real plan *)
          let survivors =
            List.init k (fun i -> (n - k + i, kernel_syms.(n - k + i)))
          in
          let kernel_dec = Erasure.decode c ~value_len survivors in
          let ref_dec = Erasure.reference_decode c ~value_len survivors in
          if kernel_dec <> Some value || ref_dec <> kernel_dec then
            failwith "coding: kernel/reference decode mismatch";
          let label = Printf.sprintf "(%d,%d) shard=%dKiB" n k (shard / 1024) in
          if quick then Printf.printf "%-22s byte-identical ok\n" label
          else begin
            let enc_kern =
              time_mbps ~bytes:value_len (fun () -> ignore (Erasure.encode c value))
            in
            let enc_ref =
              time_mbps ~bytes:value_len (fun () ->
                  ignore (Erasure.reference_encode c value))
            in
            let dec_kern =
              time_mbps ~bytes:value_len (fun () ->
                  ignore (Erasure.decode c ~value_len survivors))
            in
            let dec_ref =
              time_mbps ~bytes:value_len (fun () ->
                  ignore (Erasure.reference_decode c ~value_len survivors))
            in
            Printf.printf "%-22s %12.1f %12.1f %12.1f %12.1f\n" label enc_kern
              enc_ref dec_kern dec_ref;
            List.iter
              (fun (op, kern, refr) ->
                json_coding :=
                  Printf.sprintf
                    {|{"op": %S, "n": %d, "k": %d, "shard_bytes": %d, "kernel_mbps": %.1f, "reference_mbps": %.1f, "speedup": %.2f}|}
                    op n k shard kern refr (kern /. refr)
                  :: !json_coding)
              [ ("encode", enc_kern, enc_ref); ("decode", dec_kern, dec_ref) ]
          end)
        coding_shards)
    coding_grid;
  if not quick then
    print_endline
      "(MB/s of payload; decode is the warm plan-cache path.  Every cell is\n\
       gated on kernel == reference byte identity before being timed.)"

(* ----- Scheduler throughput ----- *)

(* The fair scheduler is the hot loop under every experiment family:
   each delivery step picks uniformly among the enabled actions.  This
   section measures raw delivery steps/sec on workloads whose enabled
   sets are large (many clients, and gossip traffic for the n^2-channel
   case), so scheduler-pick cost dominates. *)
let sched_throughput () =
  section "sched-throughput: delivery steps/sec under the fair scheduler";
  let row name algo ~n ~f ~clients ~value_len ~reps =
    let p = Engine.Types.params ~n ~f ~value_len () in
    let values = Workload.unique_values ~count:clients ~len:value_len ~seed:11 in
    let steps = ref 0 in
    let observer (_ : _ Engine.Config.t) = incr steps in
    let t0 = Sys.time () in
    for seed = 1 to reps do
      let c = Engine.Config.make algo p ~clients in
      let (_ : _ Engine.Config.t) =
        Workload.concurrent_writes ~observer ~max_steps:2_000_000 algo c ~values
          ~seed
      in
      ()
    done;
    let dt = Sys.time () -. t0 in
    let rate = float_of_int !steps /. Float.max dt 1e-9 in
    Printf.printf "%-32s %10d steps %12.0f steps/sec\n" name !steps rate;
    json_sched :=
      Printf.sprintf {|{"name": %S, "steps": %d, "steps_per_sec": %.0f}|} name
        !steps rate
      :: !json_sched
  in
  row "abd-mw    n=11 f=2  nu=8" Algorithms.Abd_mw.algo ~n:11 ~f:2 ~clients:8
    ~value_len:32 ~reps:200;
  row "cas       n=11 f=2  nu=8" Algorithms.Cas.algo ~n:11 ~f:2 ~clients:8
    ~value_len:32 ~reps:200;
  row "gossip    n=11 f=2  nu=4" Algorithms.Gossip_rep.algo ~n:11 ~f:2
    ~clients:4 ~value_len:32 ~reps:100;
  print_endline
    "(Each delivery picks uniformly from the enabled actions; with many\n\
     clients and gossip the enabled set is large, so pick cost dominates.)"

(* ----- Explorer throughput ----- *)

(* The parallel model checker on the arena engine (each domain steps
   its own arena and backtracks through its undo journal): states/sec
   at 1, 2 and 4 domains on a closing scope of >= 10^5 states (CAS
   write||read, n=3).  Wall-clock
   time (Unix.gettimeofday, not Sys.time: Sys.time sums CPU across
   domains and would hide any speedup).  The merged counts must be
   identical at every domain count -- that determinism is asserted
   here, not just eyeballed.  Speedups require actual cores: on a
   single-core host the extra domains only add contention, and this
   section reports that honestly. *)
let explore_throughput () =
  section
    "explore-throughput: parallel model checker (arena engine), states/sec vs \
     domains";
  Printf.printf "host cores (recommended domain count): %d\n\n"
    (Domain.recommended_domain_count ());
  let scope (type ss cs m) name (algo : (ss, cs, m) Engine.Types.algo) params =
    let scripts =
      [ (0, [ Engine.Types.Write "a" ]); (1, [ Engine.Types.Read ]) ]
    in
    let exec domains =
      let c = Engine.Config.make algo params ~clients:2 in
      let t0 = Unix.gettimeofday () in
      let r =
        Engine.Explore.run ~max_states:1_000_000 ~domains
          ~engine:Engine.Engine_sig.Arena algo c ~scripts
      in
      (r, Unix.gettimeofday () -. t0)
    in
    let base, base_dt = exec 1 in
    let states = base.Engine.Explore.stats.Engine.Explore.states_explored in
    Printf.printf "%-28s %8s %10s %14s %9s\n" name "domains" "states"
      "states/sec" "speedup";
    let report domains (r : Engine.Explore.run_result) dt =
      (if
         r.Engine.Explore.stats.Engine.Explore.states_explored <> states
         || r.Engine.Explore.stats.Engine.Explore.terminals
            <> base.Engine.Explore.stats.Engine.Explore.terminals
       then
         let () =
           Printf.printf "MISMATCH at %d domains: %d states, %d terminals\n"
             domains r.Engine.Explore.stats.Engine.Explore.states_explored
             r.Engine.Explore.stats.Engine.Explore.terminals
         in
         exit 1);
      let rate = float_of_int states /. Float.max dt 1e-9 in
      Printf.printf "%-28s %8d %10d %14.0f %8.2fx\n" "" domains states rate
        (base_dt /. Float.max dt 1e-9);
      json_explore :=
        Printf.sprintf
          {|{"name": %S, "domains": %d, "states": %d, "states_per_sec": %.0f}|}
          name domains states rate
        :: !json_explore
    in
    report 1 base base_dt;
    (* multi-domain rows only prove something with actual cores to run
       on; on a smaller host they are skipped (annotated, not silently
       dropped) rather than reported as if they measured a speedup *)
    let cores = Domain.recommended_domain_count () in
    List.iter
      (fun domains ->
        if domains > cores then
          Printf.printf "%-28s %8d %10s %14s   skipped (host has %d core%s)\n"
            "" domains "-" "-" cores
            (if cores = 1 then "" else "s")
        else
          let r, dt = exec domains in
          report domains r dt)
      [ 2; 4 ];
    print_endline ""
  in
  scope "abd      n=3 f=1 w||r" Algorithms.Abd.algo
    (Engine.Types.params ~n:3 ~f:1 ~value_len:1 ());
  scope "cas      n=3 f=1 w||r" Algorithms.Cas.algo
    (Engine.Types.params ~n:3 ~f:1 ~k:1 ~delta:2 ~value_len:1 ());
  print_endline
    "(Counts and terminal sets are asserted identical across domain counts --\n\
     the sharded-digest determinism contract.  The CAS scope exceeds 10^5\n\
     distinct states, large enough that per-state work dominates setup.)"

(* ----- n=5 exhaustive closure (the reduction stack's target scope) ----- *)

(* Close the paper-scale two-writer spaces at n=5 f=2 under the full
   reduction stack (DPOR sleep sets + server-symmetry + spillable
   seen-set) and report states/sec and peak RSS.  Unreduced these
   spaces are out of reach; the reductions' soundness is what the
   differential suite (test_reduction) certifies, so the counts here
   are exact closures.  Truncation fails the bench: "closed" is the
   claim being benchmarked. *)

let peak_rss_kb () =
  (* VmHWM from /proc/self/status: the process-wide high-water mark,
     so per-scope numbers are cumulative — the heavy scope last *)
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
                Fun.id
            else scan ()
      in
      let kb = scan () in
      close_in ic;
      kb

let explore_n5 () =
  section "explore-n5: exhaustive closure at n=5 f=2, two writers, --reduce all";
  let spill_dir = Filename.temp_file "smec-n5-spill" "" in
  Sys.remove spill_dir;
  Sys.mkdir spill_dir 0o700;
  let scripts =
    [ (0, [ Engine.Types.Write "a" ]); (1, [ Engine.Types.Write "b" ]) ]
  in
  Printf.printf "%-24s %12s %10s %10s %12s %12s\n" "scope" "states" "terminals"
    "secs" "states/sec" "peak RSS MB";
  let scope (type ss cs m) name (algo : (ss, cs, m) Engine.Types.algo) params =
    let c = Engine.Config.make algo params ~clients:2 in
    let t0 = Unix.gettimeofday () in
    let r =
      Engine.Explore.run ~max_states:100_000_000 ~reduce:Engine.Reduction.all
        ~spill_dir ~spill_threshold:20_000 algo c ~scripts
    in
    let dt = Unix.gettimeofday () -. t0 in
    let stats = r.Engine.Explore.stats in
    if stats.Engine.Explore.truncated then begin
      Printf.printf "explore-n5: %s did not close\n" name;
      exit 1
    end;
    let states = stats.Engine.Explore.states_explored in
    let rate = float_of_int states /. Float.max dt 1e-9 in
    let rss = peak_rss_kb () in
    Printf.printf "%-24s %12d %10d %10.1f %12.0f %12.1f\n" name states
      stats.Engine.Explore.terminals dt rate
      (float_of_int rss /. 1024.0);
    json_explore :=
      Printf.sprintf
        {|{"name": %S, "reduce": "all", "states": %d, "terminals": %d, "secs": %.1f, "states_per_sec": %.0f, "peak_rss_kb": %d}|}
        name states stats.Engine.Explore.terminals dt rate rss
      :: !json_explore
  in
  scope "abd  n=5 f=2 2w" Algorithms.Abd.algo
    (Engine.Types.params ~n:5 ~f:2 ~value_len:1 ());
  scope "cas  n=5 f=2 2w" Algorithms.Cas.algo
    (Engine.Types.params ~n:5 ~f:2 ~k:1 ~delta:2 ~value_len:1 ());
  Array.iter
    (fun f -> Sys.remove (Filename.concat spill_dir f))
    (Sys.readdir spill_dir);
  Sys.rmdir spill_dir;
  print_endline
    "(Orbit representatives under the 5! server-symmetry group, with sleep\n\
     sets pruning commuting interleavings; the seen-set spills settled\n\
     digests to sorted runs so RSS stays bounded.  Single-core host: one\n\
     domain.  test_reduction certifies these reductions against the\n\
     unreduced oracle on scopes small enough to run both.)"

(* ----- Hammer campaign throughput ----- *)

(* Executions/sec of the fault-injection campaign per algorithm: the
   number that decides how many seeded executions a CI budget buys.
   Wall clock (campaigns are single-domain, so CPU ~= wall here); the
   per-class plan mix is reported alongside so a rate change can be
   attributed to a class mix change.  Any violation fails the bench --
   the tier-1 suites gate on the same invariant, this just keeps the
   timing numbers trustworthy. *)
let hammer_throughput () =
  section "hammer: fault-injection campaign executions/sec per algorithm";
  let execs = 100 in
  Printf.printf "%-12s %8s %10s %12s %12s\n" "algo" "execs" "secs"
    "execs/sec" "deliveries";
  List.iter
    (fun algo ->
      let t0 = Unix.gettimeofday () in
      let report = Faults.Hammer.campaign ~execs ~seed:42 ~algos:[ algo ] () in
      let dt = Unix.gettimeofday () -. t0 in
      let a = List.hd report.Faults.Hammer.algos in
      let violations = List.length a.Faults.Hammer.violations in
      if violations > 0 then begin
        Printf.printf "hammer bench: %d violations in the %s campaign\n"
          violations algo;
        exit 1
      end;
      let rate = float_of_int execs /. Float.max dt 1e-9 in
      Printf.printf "%-12s %8d %10.3f %12.1f %12d\n" algo execs dt rate
        a.Faults.Hammer.deliveries;
      json_hammer :=
        Printf.sprintf
          {|{"algo": %S, "execs": %d, "secs": %.3f, "execs_per_sec": %.1f, "deliveries": %d, "completed": %d, "starved_expected": %d, "plan_mix": {%s}}|}
          algo execs dt rate a.Faults.Hammer.deliveries
          a.Faults.Hammer.completed a.Faults.Hammer.starved_expected
          (String.concat ", "
             (List.map
                (fun (name, count) -> Printf.sprintf "%S: %d" name count)
                a.Faults.Hammer.plan_mix))
        :: !json_hammer)
    Faults.Hammer.algo_names;
  print_endline
    "(Each execution = seeded fault plan x workload x schedule, consistency-\n\
     and liveness-checked; see docs/FAULTS.md.  Rates include checking.)"

(* ----- Engine comparison: arena vs pure ----- *)

(* Pure-vs-arena throughput on the three forward-only driver layers the
   arena engine rewired: the workload scheduler, the model checker at
   one domain, and the hammer campaign.  Results are asserted identical
   across engines before any rate is reported (run_result equality for
   the explorer, report JSON byte-equality for the hammer; the workload
   step counts must match) — the speedup column is only meaningful for
   equal work.  `main.exe engine --json BENCH_engine.json` records the
   rows; docs/ENGINE.md discusses them. *)
let engine_throughput () =
  section "engine: arena vs pure engine throughput (identical traces)";
  let push layer name engine metric rate speedup =
    json_engine :=
      Printf.sprintf
        {|{"layer": %S, "name": %S, "engine": %S, "%s": %.0f, "speedup": %.2f}|}
        layer name engine metric rate speedup
      :: !json_engine
  in
  let row layer name metric rp ra =
    let speedup = ra /. Float.max rp 1e-9 in
    Printf.printf "%-30s %12.0f %12.0f %8.2fx\n" name rp ra speedup;
    push layer name "pure" metric rp 1.0;
    push layer name "arena" metric ra speedup
  in
  Printf.printf "%-30s %12s %12s %9s\n" "sched (steps/sec)" "pure" "arena"
    "speedup";
  let sched_row name algo ~n ~f ~clients ~value_len ~reps =
    let p = Engine.Types.params ~n ~f ~value_len () in
    let values = Workload.unique_values ~count:clients ~len:value_len ~seed:11 in
    let steps_pure = ref 0 and steps_arena = ref 0 in
    let pure () =
      let observer (_ : _ Engine.Config.t) = incr steps_pure in
      let t0 = Unix.gettimeofday () in
      for seed = 1 to reps do
        let c = Engine.Config.make algo p ~clients in
        ignore
          (Workload.concurrent_writes ~observer ~max_steps:2_000_000 algo c
             ~values ~seed
            : _ Engine.Config.t)
      done;
      float_of_int !steps_pure /. Float.max (Unix.gettimeofday () -. t0) 1e-9
    in
    let arena () =
      let observer (_ : _ Engine.Mconfig.t) = incr steps_arena in
      let base = Engine.Mconfig.make algo p ~clients in
      let t0 = Unix.gettimeofday () in
      for seed = 1 to reps do
        let c = Engine.Mconfig.reset algo base in
        ignore
          (Workload.Arena.concurrent_writes ~observer ~max_steps:2_000_000 algo
             c ~values ~seed
            : _ Engine.Mconfig.t)
      done;
      float_of_int !steps_arena /. Float.max (Unix.gettimeofday () -. t0) 1e-9
    in
    let rp = pure () in
    let ra = arena () in
    if !steps_pure <> !steps_arena then begin
      Printf.printf "ENGINE MISMATCH on sched %s: %d vs %d steps\n" name
        !steps_pure !steps_arena;
      exit 1
    end;
    row "sched" name "steps_per_sec" rp ra
  in
  sched_row "abd-mw    n=11 f=2  nu=8" Algorithms.Abd_mw.algo ~n:11 ~f:2
    ~clients:8 ~value_len:32 ~reps:200;
  sched_row "cas       n=11 f=2  nu=8" Algorithms.Cas.algo ~n:11 ~f:2 ~clients:8
    ~value_len:32 ~reps:200;
  sched_row "gossip    n=11 f=2  nu=4" Algorithms.Gossip_rep.algo ~n:11 ~f:2
    ~clients:4 ~value_len:32 ~reps:100;
  Printf.printf "\n%-30s %12s %12s %9s\n" "explore, 1 domain (states/sec)"
    "pure" "arena" "speedup";
  let explore_row (type ss cs m) name (algo : (ss, cs, m) Engine.Types.algo)
      params =
    let scripts =
      [ (0, [ Engine.Types.Write "a" ]); (1, [ Engine.Types.Read ]) ]
    in
    let exec engine =
      let c = Engine.Config.make algo params ~clients:2 in
      let t0 = Unix.gettimeofday () in
      let r = Engine.Explore.run ~max_states:1_000_000 ~engine algo c ~scripts in
      (r, Unix.gettimeofday () -. t0)
    in
    let rp, dtp = exec Engine.Engine_sig.Pure in
    let ra, dta = exec Engine.Engine_sig.Arena in
    if rp <> ra then begin
      Printf.printf "ENGINE MISMATCH on explore %s\n" name;
      exit 1
    end;
    let states =
      float_of_int rp.Engine.Explore.stats.Engine.Explore.states_explored
    in
    row "explore" name "states_per_sec"
      (states /. Float.max dtp 1e-9)
      (states /. Float.max dta 1e-9)
  in
  explore_row "abd      n=3 f=1 w||r" Algorithms.Abd.algo
    (Engine.Types.params ~n:3 ~f:1 ~value_len:1 ());
  explore_row "cas      n=3 f=1 w||r" Algorithms.Cas.algo
    (Engine.Types.params ~n:3 ~f:1 ~k:1 ~delta:2 ~value_len:1 ());
  Printf.printf "\n%-30s %12s %12s %9s\n" "hammer (execs/sec)" "pure" "arena"
    "speedup";
  let hammer_row algo =
    (* enough executions that each timed region spans tens of ms;
       200-exec regions are a single major-GC slice wide and noisy *)
    let execs = 1000 in
    let time engine =
      let t0 = Unix.gettimeofday () in
      let r = Faults.Hammer.campaign ~execs ~seed:42 ~algos:[ algo ] ~engine () in
      (r, Unix.gettimeofday () -. t0)
    in
    let rp, dtp = time Engine.Engine_sig.Pure in
    let ra, dta = time Engine.Engine_sig.Arena in
    if Faults.Hammer.report_to_json rp <> Faults.Hammer.report_to_json ra then begin
      Printf.printf "ENGINE MISMATCH on hammer %s\n" algo;
      exit 1
    end;
    row "hammer" algo "execs_per_sec"
      (float_of_int execs /. Float.max dtp 1e-9)
      (float_of_int execs /. Float.max dta 1e-9)
  in
  List.iter hammer_row Faults.Hammer.algo_names;
  print_endline
    "\n\
     (Same seeds, same decisions, byte-identical results -- asserted above;\n\
     the arena engine just mutates one preallocated configuration in place\n\
     instead of copying persistent structures per step.)"

(* CI smoke for the arena scheduler: a conservative floor that catches
   an order-of-magnitude regression (a journal accidentally left on, an
   allocation reintroduced on the step path) without being sensitive to
   host speed.  The measured rate is far above the floor -- see
   BENCH_engine.json. *)
let sched_quick () =
  section "sched-quick: arena scheduler smoke (CI floor)";
  let algo = Algorithms.Abd_mw.algo in
  let p = Engine.Types.params ~n:11 ~f:2 ~value_len:32 () in
  let clients = 8 in
  let values = Workload.unique_values ~count:clients ~len:32 ~seed:11 in
  let steps = ref 0 in
  let observer (_ : _ Engine.Mconfig.t) = incr steps in
  let base = Engine.Mconfig.make algo p ~clients in
  let t0 = Unix.gettimeofday () in
  for seed = 1 to 50 do
    let c = Engine.Mconfig.reset algo base in
    ignore
      (Workload.Arena.concurrent_writes ~observer ~max_steps:2_000_000 algo c
         ~values ~seed
        : _ Engine.Mconfig.t)
  done;
  let rate = float_of_int !steps /. Float.max (Unix.gettimeofday () -. t0) 1e-9 in
  let floor = 1_000_000.0 in
  Printf.printf "arena abd-mw n=11 nu=8: %d steps, %.0f steps/sec (floor %.0f)\n"
    !steps rate floor;
  if rate < floor then begin
    print_endline "sched-quick: BELOW FLOOR";
    exit 1
  end

(* ----- Wire runtime: smec serve over unix sockets ----- *)

(* The serving loop and the load generator run in this one process
   (server on a thread, client on the bench thread) over unix-domain
   sockets, so the numbers measure the runtime itself -- framing,
   select loops, dedup bookkeeping, trace logging, Marshal -- with no
   network and both sides contending for the same cores.  Two rows per
   algorithm: `capacity` drives an open-loop arrival rate far above
   what the runtime can serve and reports the achieved ops/sec
   (latency there is queueing, not service time, and is omitted);
   `latency` runs well below capacity and reports honest p50/p99.
   Every run's traces are replayed through the pure engine; a
   refinement violation fails the bench.  `main.exe serve --json
   BENCH_serve.json` records the rows -- see docs/TRANSPORT.md for the
   measured numbers and their caveats. *)
let serve_throughput () =
  section "serve: wire runtime over unix sockets (in-process, single host)";
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "smec-bench-serve-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let clients = 8 in
  (* delta must cover the worst-case write concurrency (all clients)
     or CAS servers GC symbols that in-flight readers still need *)
  let params =
    Engine.Types.params ~n:5 ~f:1 ~k:3 ~delta:clients ~value_len:16 ()
  in
  let addrs =
    Array.init params.Engine.Types.n (fun i ->
        Transport.Conn.Uds (Filename.concat dir (Printf.sprintf "s%d.sock" i)))
  in
  Printf.printf "%-12s %-9s %9s %9s %9s %7s %7s %7s\n" "algo" "mode" "ops/s"
    "p50 ms" "p99 ms" "retx" "dedup" "ops";
  List.iter
    (fun key ->
      Faults.Hammer.dispatch ~key ~canary:false
        {
          use =
            (fun algo ->
              List.iter
                (fun (mode, rate, duration_s, max_wall_s) ->
                  let strace = Filename.concat dir "server.trace"
                  and ctrace = Filename.concat dir "client.trace" in
                  let sw = Transport.Trace.open_writer strace in
                  let stop = ref false and ready = ref false in
                  let sstats = ref None in
                  let th =
                    Thread.create
                      (fun () ->
                        sstats :=
                          Some
                            (Transport.Server.serve algo params ~algo_key:key
                               ~addrs ~clients ~trace:sw
                               ~stop:(fun () -> !stop)
                               ~on_ready:(fun () -> ready := true)
                               ()))
                      ()
                  in
                  while not !ready do
                    Thread.delay 0.002
                  done;
                  let cw = Transport.Trace.open_writer ctrace in
                  let gen =
                    Workload.Open_loop.make ~rate ~read_pct:50 ~value_len:16
                      ~seed:11
                  in
                  let cs =
                    Transport.Client.run algo params ~addrs ~clients
                      ~source:(Transport.Client.Load { gen; duration_s })
                      ~seed:11 ~op_deadline_s:30.0 ~drain_s:30.0 ~max_wall_s
                      ~trace:cw ()
                  in
                  Transport.Trace.close cw;
                  stop := true;
                  Thread.join th;
                  Transport.Trace.close sw;
                  let ss =
                    match !sstats with
                    | Some s -> s
                    | None ->
                        print_endline "serve bench: server thread died";
                        exit 1
                  in
                  let _, server_events = Transport.Trace.load strace in
                  let _, client_events = Transport.Trace.load ctrace in
                  let r =
                    Transport.Refine.run algo params ~clients ~server_events
                      ~client_streams:[ client_events ]
                  in
                  if not r.Transport.Refine.ok then begin
                    Format.printf "serve bench: refinement violation@.%a@."
                      Transport.Refine.pp_report r;
                    exit 1
                  end;
                  let ops_per_sec =
                    float_of_int cs.Transport.Client.completed
                    /. Float.max cs.Transport.Client.wall_s 1e-9
                  in
                  let saturated = String.equal mode "capacity" in
                  let p50_ms = 1e3 *. cs.Transport.Client.p50_s
                  and p99_ms = 1e3 *. cs.Transport.Client.p99_s in
                  if saturated then
                    Printf.printf "%-12s %-9s %9.0f %9s %9s %7d %7d %7d\n" key
                      mode ops_per_sec "-" "-" cs.Transport.Client.retransmits
                      ss.Transport.Server.dedup_hits
                      cs.Transport.Client.completed
                  else
                    Printf.printf "%-12s %-9s %9.0f %9.2f %9.2f %7d %7d %7d\n"
                      key mode ops_per_sec p50_ms p99_ms
                      cs.Transport.Client.retransmits
                      ss.Transport.Server.dedup_hits
                      cs.Transport.Client.completed;
                  json_serve :=
                    Printf.sprintf
                      {|{"algo": %S, "mode": %S, "ops_per_sec": %.1f, "p50_ms": %.3f, "p99_ms": %.3f, "completed": %d, "starved": %d, "retransmits": %d, "reconnects": %d, "dedup_hits": %d, "refined_events": %d, "bits_mismatches": %d}|}
                      key mode ops_per_sec
                      (if saturated then 0.0 else p50_ms)
                      (if saturated then 0.0 else p99_ms)
                      cs.Transport.Client.completed cs.Transport.Client.starved
                      cs.Transport.Client.retransmits
                      cs.Transport.Client.reconnects
                      ss.Transport.Server.dedup_hits r.Transport.Refine.replayed
                      r.Transport.Refine.bits_mismatches
                    :: !json_serve)
                (* capacity queues rate*duration open-loop arrivals, far
                   above single-host service capacity; max_wall bounds
                   the run and the achieved ops/sec is what's reported *)
                [ ("latency", 300.0, 3.0, 60.0); ("capacity", 5_000.0, 2.0, 20.0) ]);
        })
    [ "abd"; "cas" ];
  print_endline
    "(Single host, in-process server+client sharing cores; latency rows run\n\
     at 300 ops/sec arrival, capacity rows at open-loop saturation.  Every\n\
     run is certified by the refinement harness before its rate is printed.)"

(* ----- Bechamel microbenchmarks ----- *)

open Bechamel
open Toolkit

let bench_tests () =
  let rs_code = Erasure.create ~n:9 ~k:3 in
  let value = String.init 4096 (fun i -> Char.chr (i land 0xff)) in
  let symbols =
    Array.to_list (Array.mapi (fun i s -> (i, s)) (Erasure.encode rs_code value))
  in
  let three = List.filteri (fun i _ -> i >= 6) symbols in
  let abd_params = Engine.Types.params ~n:5 ~f:2 ~value_len:16 () in
  let mk_history () =
    let c = Engine.Config.make Algorithms.Abd.algo abd_params ~clients:3 in
    let values = Workload.unique_values ~count:6 ~len:16 ~seed:3 in
    let scripts =
      Workload.mixed_scripts ~writers:1 ~readers:2 ~values ~reads_per_reader:4
    in
    let c = Workload.run_scripts Algorithms.Abd.algo c scripts ~seed:4 in
    Consistency.History.of_events (Engine.Config.history c)
  in
  let history = mk_history () in
  [
    Test.make ~name:"figure1/analytic-series"
      (Staged.stage (fun () -> ignore (Core.figure1 ())));
    Test.make ~name:"figure1-measured/abd-roundtrip"
      (Staged.stage (fun () ->
           let c = Engine.Config.make Algorithms.Abd.algo abd_params ~clients:2 in
           let rng = Engine.Driver.rng_of_seed 5 in
           let c =
             Engine.Driver.write_exn Algorithms.Abd.algo c ~client:0
               ~value:"0123456789abcdef" ~rng
           in
           ignore (Engine.Driver.read_exn Algorithms.Abd.algo c ~client:1 ~rng)));
    Test.make ~name:"census-b1/singleton-run"
      (Staged.stage (fun () -> ignore (Core.experiment_b1 ~v:2 ())));
    Test.make ~name:"census-41/critical-pair"
      (Staged.stage (fun () ->
           ignore
             (Valency.Critical.run_pair Algorithms.Abd.regular_algo
                (Engine.Types.params ~n:3 ~f:1 ~value_len:1 ())
                ~mode:Valency.Critical.No_gossip ("a", "b"))));
    Test.make ~name:"census-51/gossip-pair"
      (Staged.stage (fun () ->
           ignore
             (Valency.Critical.run_pair Algorithms.Gossip_rep.algo
                (Engine.Types.params ~n:3 ~f:1 ~value_len:1 ())
                ~mode:Valency.Critical.Gossip ("a", "b"))));
    Test.make ~name:"census-65/staged-vector"
      (Staged.stage (fun () ->
           ignore
             (Valency.Multi.run_vector Algorithms.Cas.algo
                (Engine.Types.params ~n:4 ~f:1 ~k:2 ~delta:2 ~value_len:1 ())
                ~values:[ "a"; "b" ])));
    Test.make ~name:"substrate/rs-encode-4k"
      (Staged.stage (fun () -> ignore (Erasure.encode rs_code value)));
    Test.make ~name:"substrate/rs-decode-parity-4k"
      (Staged.stage (fun () -> ignore (Erasure.decode rs_code ~value_len:4096 three)));
    Test.make ~name:"substrate/atomicity-check"
      (Staged.stage (fun () -> ignore (Consistency.Checker.atomic history)));
    Test.make ~name:"sweep-n/bounds-500pts"
      (Staged.stage (fun () ->
           for n = 11 to 510 do
             ignore (Bounds.norm_universal (Bounds.params ~n ~f:10))
           done));
    Test.make ~name:"crossover/search"
      (Staged.stage (fun () ->
           for n = 11 to 110 do
             ignore (Bounds.crossover_nu (Bounds.params ~n ~f:10))
           done));
  ]

let run_benchmarks () =
  section "bechamel microbenchmarks (one per experiment family)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false () in
  let tests = Test.make_grouped ~name:"smec" ~fmt:"%s %s" (bench_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  Printf.printf "%-45s %15s\n" "benchmark" "ns/run";
  Hashtbl.iter
    (fun _measure tbl ->
      let rows =
        Hashtbl.fold
          (fun name ols acc ->
            let est =
              match Analyze.OLS.estimates ols with
              | Some (e :: _) -> e
              | _ -> Float.nan
            in
            (name, est) :: acc)
          tbl []
      in
      List.iter
        (fun (name, est) -> Printf.printf "%-45s %15.1f\n" name est)
        (List.sort compare rows))
    results

(* With arguments, run only the named sections (e.g. `main.exe sched`);
   with none, regenerate every artifact. *)
let sections =
  [
    ("figure1", figure1);
    ("figure1-measured", figure1_measured);
    ("census-b1", census_b1);
    ("census-41", census_41);
    ("census-51", census_51);
    ("census-65", census_65);
    ("census-65-conjecture", census_65_conjecture);
    ("sweep-n", sweep_n);
    ("crossover", crossover);
    ("sweep-f-measured", sweep_f_measured);
    ("convergence", convergence);
    ("op-costs", op_costs);
    ("sweep-census", sweep_census);
    ("ablation-seeds", ablation_seeds);
    ("ablation-delta", ablation_delta);
    ("ablation-branching", ablation_branching);
    ("coding", run_coding ~quick:false);
    ("coding-quick", run_coding ~quick:true);
    ("sched", sched_throughput);
    ("sched-quick", sched_quick);
    ("explore", explore_throughput);
    ("explore-n5", explore_n5);
    ("hammer", hammer_throughput);
    ("engine", engine_throughput);
    ("serve", serve_throughput);
    ("bench", run_benchmarks);
  ]

let () =
  let rec split picks = function
    | "--json" :: path :: rest ->
        json_out := Some path;
        split picks rest
    | [ "--json" ] ->
        prerr_endline "bench: --json needs a file argument";
        exit 2
    | pick :: rest -> split (pick :: picks) rest
    | [] -> List.rev picks
  in
  (match split [] (List.tl (Array.to_list Sys.argv)) with
  | _ :: _ as picks ->
      List.iter
        (fun pick ->
          match List.assoc_opt pick sections with
          | Some f -> f ()
          | None ->
              Printf.eprintf "bench: unknown section %S\n" pick;
              exit 2)
        picks
  | [] ->
      (* `coding-quick` and `sched-quick` are the CI subsets of their
         full sections; `explore-n5` is the manually-triggered heavy
         closure run: skip all three on a full run *)
      List.iter
        (fun (name, f) ->
          if
            name <> "coding-quick" && name <> "sched-quick"
            && name <> "explore-n5"
          then f ())
        sections;
      line ();
      print_endline "bench: all experiment families regenerated.");
  match !json_out with Some path -> write_json path | None -> ()

