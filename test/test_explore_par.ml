(* Differential tests for the parallel model checker: the one search
   core must agree exactly with itself across engines and domain
   counts — the 1-domain pure run is the reference, and the pure and
   arena engines at 1, 2 and 4 domains must reproduce its
   states_explored, terminals, and byte-identical sorted terminal- and
   deadlock-history sets — on every algorithm, at scopes where the
   space closes (truncation cut-offs are racy by design, so closed
   spaces are the determinism contract). *)

open Engine

let hist_keys (r : Explore.run_result) =
  List.map Explore.history_key r.Explore.histories

let dead_keys (r : Explore.run_result) =
  List.map Explore.history_key r.Explore.deadlocks

let engines = [ Engine_sig.Pure; Engine_sig.Arena ]

let differential (type ss cs m) name (algo : (ss, cs, m) Types.algo) params
    ~scripts () =
  let exec engine domains =
    let config = Config.make algo params ~clients:2 in
    Explore.run ~max_states:1_000_000 ~engine ~domains algo config ~scripts
  in
  let base = exec Engine_sig.Pure 1 in
  Alcotest.(check bool)
    (name ^ ": space closes sequentially")
    false base.Explore.stats.Explore.truncated;
  Alcotest.(check bool)
    (name ^ ": terminals found")
    true
    (base.Explore.stats.Explore.terminals > 0);
  List.iter
    (fun engine ->
      List.iter
        (fun domains ->
          let r = exec engine domains in
          let tag what =
            Printf.sprintf "%s @ %s, %d domains: %s" name
              (Engine_sig.kind_to_string engine)
              domains what
          in
          Alcotest.(check bool)
            (tag "closed") false r.Explore.stats.Explore.truncated;
          Alcotest.(check int)
            (tag "states_explored")
            base.Explore.stats.Explore.states_explored
            r.Explore.stats.Explore.states_explored;
          Alcotest.(check int)
            (tag "terminals")
            base.Explore.stats.Explore.terminals
            r.Explore.stats.Explore.terminals;
          Alcotest.(check (list string))
            (tag "sorted terminal histories")
            (hist_keys base) (hist_keys r);
          Alcotest.(check (list string))
            (tag "sorted deadlock histories")
            (dead_keys base) (dead_keys r))
        (match engine with
        | Engine_sig.Pure -> [ 2; 4 ]
        | Engine_sig.Arena -> [ 1; 2; 4 ]))
    engines

let wr = [ (0, [ Types.Write "a" ]); (1, [ Types.Read ]) ]
let p31 = Types.params ~n:3 ~f:1 ~value_len:1 ()
let p20 = Types.params ~n:2 ~f:0 ~value_len:1 ()
let pcas = Types.params ~n:2 ~f:0 ~k:1 ~delta:2 ~value_len:1 ()

(* the parallel engine agrees with the legacy sequential callback API *)
let test_run_matches_explore () =
  let algo = Algorithms.Abd.algo in
  let scripts = wr in
  let seq_terminals = ref 0 in
  let seq_stats =
    Explore.explore algo
      (Config.make algo p31 ~clients:2)
      ~scripts
      ~on_terminal:(fun _ -> incr seq_terminals)
  in
  List.iter
    (fun engine ->
      let par =
        Explore.run ~engine ~domains:4 algo
          (Config.make algo p31 ~clients:2)
          ~scripts
      in
      let tag what = Engine_sig.kind_to_string engine ^ ": " ^ what in
      Alcotest.(check int)
        (tag "states_explored") seq_stats.Explore.states_explored
        par.Explore.stats.Explore.states_explored;
      Alcotest.(check int)
        (tag "terminals") seq_stats.Explore.terminals
        par.Explore.stats.Explore.terminals;
      Alcotest.(check int)
        (tag "on_terminal call count")
        !seq_terminals
        (List.length par.Explore.histories))
    engines

(* run twice at the same domain count: the merged result is a pure
   function of the scope, not of scheduling luck *)
let test_repeatable () =
  let algo = Algorithms.Cas.algo in
  List.iter
    (fun engine ->
      let exec () =
        Explore.run ~engine ~domains:2 algo
          (Config.make algo pcas ~clients:2)
          ~scripts:wr
      in
      let a = exec () and b = exec () in
      let tag what = Engine_sig.kind_to_string engine ^ ": " ^ what in
      Alcotest.(check int)
        (tag "states") a.Explore.stats.Explore.states_explored
        b.Explore.stats.Explore.states_explored;
      Alcotest.(check (list string))
        (tag "histories") (hist_keys a) (hist_keys b))
    engines

(* regression: a deadlock is reported as a structured outcome carrying
   the stuck configuration's history, not as an exception that loses
   it.  Freezing every server mid-operation strands the client: its
   invocation is out, no delivery can ever answer it, and the client
   itself is not frozen, so this is a real liveness violation. *)
let test_deadlock_reported () =
  let algo = Algorithms.Abd.algo in
  let config = Config.make algo p31 ~clients:1 in
  let config =
    Config.freeze_all config
      [ Types.Server 0; Types.Server 1; Types.Server 2 ]
  in
  let r = Explore.run algo config ~scripts:[ (0, [ Types.Write "a" ]) ] in
  let expected =
    Explore.history_key
      [ Types.Invoke { op_id = 0; client = 0; op = Types.Write "a"; time = 0 } ]
  in
  (match r.Explore.stats.Explore.outcome with
  | Explore.Deadlock h ->
      Alcotest.(check string)
        "deadlock history is the frozen write's invocation" expected
        (Explore.history_key h)
  | Explore.Closed | Explore.Truncated ->
      Alcotest.fail "expected a Deadlock outcome");
  Alcotest.(check int) "no terminals" 0 r.Explore.stats.Explore.terminals;
  Alcotest.(check int) "one deadlock history" 1 (List.length r.Explore.deadlocks)

(* the search continues past a deadlock: other branches still reach
   their terminals, so one liveness bug does not mask the rest of the
   space *)
let test_deadlock_does_not_abort () =
  let algo = Algorithms.Abd.algo in
  (* client 0 is stranded towards frozen servers only after its write
     is invoked; client 1's read still completes in branches where the
     freeze does not block it.  Freeze server 2 only: quorums of size 2
     out of {s0, s1} remain, so reads/writes still finish — but no
     branch deadlocks either.  Instead, strand client 0 fully and let
     client 1 run: every terminal of the space has client 1's read
     done, and the deadlocked branches are reported separately. *)
  let config = Config.make algo p31 ~clients:2 in
  let config =
    Config.freeze_all config
      [ Types.Server 0; Types.Server 1; Types.Server 2 ]
  in
  let r =
    Explore.run algo config
      ~scripts:[ (0, [ Types.Write "a" ]); (1, [ Types.Read ]) ]
  in
  (match r.Explore.stats.Explore.outcome with
  | Explore.Deadlock _ -> ()
  | _ -> Alcotest.fail "expected a Deadlock outcome");
  Alcotest.(check bool)
    "exploration continued past the deadlock" true
    (r.Explore.stats.Explore.states_explored > 2)

(* frozen clients with pending operations are intended suspensions
   (the valency adversary), not deadlocks *)
let test_frozen_client_is_not_deadlock () =
  let algo = Algorithms.Abd.algo in
  let config = Config.make algo p31 ~clients:1 in
  let _, config = Config.invoke algo config ~client:0 (Types.Write "a") in
  let config = Config.freeze config (Types.Client 0) in
  (* a mid-execution start: only the pure engine explores from one *)
  let r = Explore.run ~engine:Engine_sig.Pure algo config ~scripts:[ (0, []) ] in
  match r.Explore.stats.Explore.outcome with
  | Explore.Closed -> ()
  | Explore.Deadlock _ ->
      Alcotest.fail "frozen client misreported as deadlock"
  | Explore.Truncated -> Alcotest.fail "unexpected truncation"

(* the arena engine at several domains builds one cursor per domain
   from the initial configuration: pre-applied failures and freezes
   carry over (the result matches the pure engine's), while a
   mid-execution configuration is still refused *)
let test_arena_start_shapes () =
  let algo = Algorithms.Abd.algo in
  let scripts = wr in
  let faulty =
    Config.freeze
      (Config.fail_server (Config.make algo p31 ~clients:2) 2)
      (Types.Server 1)
  in
  let exec engine = Explore.run ~engine ~domains:2 algo faulty ~scripts in
  let pure = exec Engine_sig.Pure and arena = exec Engine_sig.Arena in
  Alcotest.(check int)
    "states" pure.Explore.stats.Explore.states_explored
    arena.Explore.stats.Explore.states_explored;
  Alcotest.(check (list string))
    "terminal histories" (hist_keys pure) (hist_keys arena);
  Alcotest.(check (list string))
    "deadlock histories" (dead_keys pure) (dead_keys arena);
  Alcotest.(check bool) "faults shape the space" true (dead_keys pure <> []);
  let _, started =
    Config.invoke algo (Config.make algo p31 ~clients:2) ~client:0
      (Types.Write "a")
  in
  match
    Explore.run ~engine:Engine_sig.Arena ~domains:2 algo started
      ~scripts:[ (1, [ Types.Read ]) ]
  with
  | _ -> Alcotest.fail "a non-initial configuration must be refused"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "explore_par"
    [
      ( "differential seq vs domains",
        [
          Alcotest.test_case "abd write||read" `Slow
            (differential "abd" Algorithms.Abd.algo p31 ~scripts:wr);
          Alcotest.test_case "abd-mw write||read" `Slow
            (differential "abd-mw" Algorithms.Abd_mw.algo p31 ~scripts:wr);
          Alcotest.test_case "cas write||read" `Quick
            (differential "cas" Algorithms.Cas.algo pcas ~scripts:wr);
          Alcotest.test_case "gossip write||read" `Quick
            (differential "gossip" Algorithms.Gossip_rep.algo p20 ~scripts:wr);
          Alcotest.test_case "run matches explore" `Slow
            test_run_matches_explore;
          Alcotest.test_case "repeatable at fixed domains" `Quick
            test_repeatable;
          Alcotest.test_case "arena start shapes at 2 domains" `Quick
            test_arena_start_shapes;
        ] );
      ( "deadlock outcome",
        [
          Alcotest.test_case "structured report" `Quick test_deadlock_reported;
          Alcotest.test_case "search continues" `Quick
            test_deadlock_does_not_abort;
          Alcotest.test_case "frozen client exempt" `Quick
            test_frozen_client_is_not_deadlock;
        ] );
    ]
