(* Tests for the Nemesis fault-injection subsystem: plan serialization
   and static analysis, the fault-injecting scheduler and its
   starvation oracle, counterexample shrinking, and the hammer
   campaign (including the planted ABD canary). *)

open Faults

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ----- Plan: construction and serialization ----- *)

let sample_plan () =
  Plan.make
    [
      Plan.Crash { step = 12; server = 3 };
      Plan.Freeze { step = 5; until = Some 40; endpoint = Engine.Types.Server 1 };
      Plan.Freeze { step = 9; until = None; endpoint = Engine.Types.Client 0 };
      Plan.Set_policy { step = 0; policy = Plan.Starve (Engine.Types.Server 2) };
    ]

let test_plan_round_trip () =
  let p = sample_plan () in
  let s = Plan.to_string p in
  Alcotest.(check string) "round trip" s (Plan.to_string (Plan.of_string s));
  Alcotest.(check string) "empty plan" "" (Plan.to_string Plan.empty);
  Alcotest.(check bool) "empty round trip" true (Plan.is_empty (Plan.of_string ""));
  Alcotest.(check int) "fault count survives" 4
    (Plan.fault_count (Plan.of_string s));
  (* sorted by step, stable *)
  Alcotest.(check bool) "policy first" true
    (match Plan.faults p with Plan.Set_policy { step = 0; _ } :: _ -> true | _ -> false);
  (* every policy codec round-trips *)
  List.iter
    (fun pol ->
      let p = Plan.make [ Plan.Set_policy { step = 1; policy = pol } ] in
      Alcotest.(check string) "policy codec" (Plan.to_string p)
        (Plan.to_string (Plan.of_string (Plan.to_string p))))
    [ Plan.Uniform; Plan.First_key; Plan.Last_key;
      Plan.Starve (Engine.Types.Client 1) ]

let test_plan_validation () =
  let expect_invalid what faults =
    match Plan.make faults with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "negative step" [ Plan.Crash { step = -1; server = 0 } ];
  expect_invalid "empty freeze window"
    [ Plan.Freeze { step = 5; until = Some 5; endpoint = Engine.Types.Server 0 } ];
  expect_invalid "overlapping epochs"
    [
      Plan.Freeze { step = 0; until = Some 10; endpoint = Engine.Types.Server 0 };
      Plan.Freeze { step = 5; until = None; endpoint = Engine.Types.Server 0 };
    ];
  (match Plan.of_string "crash@zz=s0" with
  | _ -> Alcotest.fail "malformed plan accepted"
  | exception Invalid_argument _ -> ());
  (* adjacent epochs of one endpoint are fine *)
  ignore
    (Plan.make
       [
         Plan.Freeze { step = 0; until = Some 5; endpoint = Engine.Types.Server 0 };
         Plan.Freeze { step = 5; until = Some 9; endpoint = Engine.Types.Server 0 };
       ])

let test_plan_analysis () =
  let p = sample_plan () in
  Alcotest.(check (list int)) "crashed" [ 3 ] (Plan.crashed_servers p);
  Alcotest.(check bool) "client frozen forever" true
    (Plan.has_permanent_client_freeze p);
  (* server 1's freeze is bounded, so only the crash is dead *)
  Alcotest.(check (list int)) "dead servers" [ 3 ] (Plan.dead_servers p)

let test_exhaustive_count () =
  (* subsets of size <= 2 of 4 servers: 1 + 4 + 6 *)
  let plans = Plan.exhaustive_crashes ~n:4 ~max_size:2 ~step:0 in
  Alcotest.(check int) "1+4+6 subsets" 11 (List.length plans);
  let strings = List.map Plan.to_string plans in
  Alcotest.(check int) "all distinct" 11
    (List.length (List.sort_uniq compare strings))

let test_expectation () =
  let exp p = Plan.expectation p ~n:3 ~required:2 in
  Alcotest.(check bool) "empty completes" true
    (exp Plan.empty = Some Plan.Must_complete);
  Alcotest.(check bool) "over-crash starves" true
    (exp (Plan.over_crash ~n:3 ~required:2 ~seed:1) = Some Plan.Must_starve);
  Alcotest.(check bool) "permanent partition starves" true
    (exp (Plan.partition ~n:3 ~required:2 ~until:None ~seed:1)
    = Some Plan.Must_starve);
  Alcotest.(check bool) "healed partition completes" true
    (exp (Plan.partition ~n:3 ~required:2 ~until:(Some 30) ~seed:1)
    = Some Plan.Must_complete);
  (* a quorum-killing crash set scheduled late is schedule-dependent *)
  let late =
    Plan.make
      [ Plan.Crash { step = 8; server = 0 }; Plan.Crash { step = 8; server = 1 } ]
  in
  Alcotest.(check bool) "late over-crash undetermined" true (exp late = None);
  (* random plans never guarantee starvation *)
  for seed = 0 to 20 do
    let p =
      Plan.random ~n:3 ~f:1 ~clients:2 ~horizon:40 ~seed ~freezes:true
        ~policies:true ()
    in
    if exp p = Some Plan.Must_starve then
      Alcotest.failf "random plan %s must-starve" (Plan.to_string p)
  done

(* ----- Plan: network faults (the nemesis schedule) ----- *)

let net_sample () =
  Plan.make
    [
      Plan.Net { step = 0; until = None; scope = None;
                 op = Plan.Net_drop { pct = 30 } };
      Plan.Net { step = 500; until = Some 2000;
                 scope = Some (Engine.Types.Server 2);
                 op = Plan.Net_delay { ms_lo = 10; ms_hi = 50 } };
      Plan.Net { step = 100; until = Some 900;
                 scope = Some (Engine.Types.Client 1);
                 op = Plan.Net_dup { pct = 5 } };
      Plan.Net { step = 200; until = None; scope = None;
                 op = Plan.Net_reorder { pct = 10 } };
      Plan.Net { step = 1000; until = None;
                 scope = Some (Engine.Types.Server 0); op = Plan.Net_sever };
    ]

let test_net_round_trip () =
  let p = net_sample () in
  let s = Plan.to_string p in
  Alcotest.(check string) "round trip" s (Plan.to_string (Plan.of_string s));
  Alcotest.(check int) "all five survive" 5
    (Plan.fault_count (Plan.of_string s));
  Alcotest.(check bool) "has_net" true (Plan.has_net p);
  Alcotest.(check bool) "no net in plain plan" false
    (Plan.has_net (sample_plan ()));
  (* net faults listed in step order with windows and scopes intact *)
  (match Plan.net_faults p with
  | [ (0, None, None, Plan.Net_drop { pct = 30 });
      (100, Some 900, Some (Engine.Types.Client 1), Plan.Net_dup { pct = 5 });
      (200, None, None, Plan.Net_reorder { pct = 10 });
      (500, Some 2000, Some (Engine.Types.Server 2),
       Plan.Net_delay { ms_lo = 10; ms_hi = 50 });
      (1000, None, Some (Engine.Types.Server 0), Plan.Net_sever) ] ->
      ()
  | _ -> Alcotest.fail "net_faults: wrong schedule");
  (* JSON mentions every op *)
  let j = Plan.to_json p in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in json") true (contains j needle))
    [ "\"net\""; "drop"; "delay"; "dup"; "reorder"; "sever"; "ms_lo" ]

let test_net_qcheck_round_trip () =
  let gen =
    QCheck2.Gen.(
      let* step = 0 -- 5000 in
      let* until =
        oneof [ return None; map (fun d -> Some (step + 1 + d)) (0 -- 5000) ]
      in
      let* scope =
        oneof
          [
            return None;
            map (fun i -> Some (Engine.Types.Server i)) (0 -- 4);
            map (fun i -> Some (Engine.Types.Client i)) (0 -- 4);
          ]
      in
      let* op =
        oneof
          [
            map (fun pct -> Plan.Net_drop { pct }) (1 -- 100);
            map (fun pct -> Plan.Net_dup { pct }) (1 -- 100);
            map (fun pct -> Plan.Net_reorder { pct }) (1 -- 100);
            (let* lo = 0 -- 200 in
             let* d = 0 -- 200 in
             return (Plan.Net_delay { ms_lo = lo; ms_hi = lo + d }));
            return Plan.Net_sever;
          ]
      in
      let until = match op with Plan.Net_sever -> None | _ -> until in
      return (Plan.Net { step; until; scope; op }))
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:200 ~name:"net fault codec round-trips"
       QCheck2.Gen.(list_size (1 -- 6) gen)
       (fun faults ->
         let p = Plan.make faults in
         let s = Plan.to_string p in
         String.equal s (Plan.to_string (Plan.of_string s))
         && Plan.fault_count (Plan.of_string s) = List.length faults))

let test_net_validation () =
  let expect_invalid what faults =
    match Plan.make faults with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "pct 0"
    [ Plan.Net { step = 0; until = None; scope = None;
                 op = Plan.Net_drop { pct = 0 } } ];
  expect_invalid "pct 101"
    [ Plan.Net { step = 0; until = None; scope = None;
                 op = Plan.Net_dup { pct = 101 } } ];
  expect_invalid "negative delay"
    [ Plan.Net { step = 0; until = None; scope = None;
                 op = Plan.Net_delay { ms_lo = -1; ms_hi = 5 } } ];
  expect_invalid "inverted delay window"
    [ Plan.Net { step = 0; until = None; scope = None;
                 op = Plan.Net_delay { ms_lo = 9; ms_hi = 3 } } ];
  expect_invalid "empty net window"
    [ Plan.Net { step = 7; until = Some 7; scope = None;
                 op = Plan.Net_drop { pct = 10 } } ];
  expect_invalid "sever with window"
    [ Plan.Net { step = 0; until = Some 5; scope = None;
                 op = Plan.Net_sever } ];
  (match Plan.of_string "net@0..=drop:999" with
  | _ -> Alcotest.fail "malformed net pct accepted"
  | exception Invalid_argument _ -> ())

let test_net_inert_in_injector () =
  (* the simulated injector ignores net faults entirely: same outcome
     with and without them *)
  let algo = Algorithms.Abd.algo in
  let params = Engine.Types.params ~n:3 ~f:1 ~value_len:4 () in
  let scripts =
    [ { Workload.client = 0; ops = [ Engine.Types.Write "abcd" ] };
      { Workload.client = 1; ops = [ Engine.Types.Read ] } ]
  in
  let run plan =
    let c = Engine.Config.make algo params ~clients:2 in
    let r = Injector.run algo c ~plan ~scripts ~required:2 ~seed:5 in
    ( Format.asprintf "%a" Injector.pp_outcome r.Injector.outcome,
      r.Injector.steps )
  in
  let with_net =
    Plan.make
      [ Plan.Net { step = 0; until = None; scope = None;
                   op = Plan.Net_drop { pct = 50 } } ]
  in
  let o0, s0 = run Plan.empty and o1, s1 = run with_net in
  Alcotest.(check string) "same outcome" o0 o1;
  Alcotest.(check int) "same steps" s0 s1

(* ----- Oracle ----- *)

let test_required_quorum () =
  let rep = Engine.Types.params ~n:5 ~f:2 ~value_len:1 () in
  Alcotest.(check int) "replication: n - f" 3
    (Oracle.required_quorum ~algo_name:"abd-swmr" rep);
  let ec = Engine.Types.params ~n:4 ~f:1 ~k:2 ~delta:2 ~value_len:1 () in
  Alcotest.(check int) "cas: ceil (n+k)/2" 3
    (Oracle.required_quorum ~algo_name:"cas" ec);
  Alcotest.(check int) "awe uses cas quorum" 3
    (Oracle.required_quorum ~algo_name:"awe-two-phase" ec)

(* ----- Injector ----- *)

let abd_setup ~clients =
  let params = Engine.Types.params ~n:3 ~f:1 ~value_len:2 () in
  let algo = Algorithms.Abd.algo in
  (algo, params, Engine.Config.make algo params ~clients)

let abd_scripts =
  [
    { Workload.client = 0; ops = [ Engine.Types.Write "aa"; Engine.Types.Write "bb" ] };
    { Workload.client = 1; ops = [ Engine.Types.Read; Engine.Types.Read ] };
  ]

let run_abd ~plan ~seed =
  let algo, params, c = abd_setup ~clients:2 in
  let required = Oracle.required_quorum ~algo_name:algo.Engine.Types.name params in
  (Injector.run algo c ~plan ~scripts:abd_scripts ~required ~seed, params)

let check_atomic params r =
  let h = Consistency.History.of_events (Engine.Config.history r.Injector.config) in
  match Consistency.Checker.atomic ~init:(Algorithms.Common.initial_value params) h with
  | Consistency.Checker.Valid -> ()
  | Consistency.Checker.Invalid why -> Alcotest.failf "not atomic: %s" why

let test_injector_tolerated_crash () =
  let plan = Plan.make [ Plan.Crash { step = 0; server = 2 } ] in
  let r, params = run_abd ~plan ~seed:5 in
  (match r.Injector.outcome with
  | Injector.Completed -> ()
  | o -> Alcotest.failf "expected completion: %a" Injector.pp_outcome o);
  check_atomic params r;
  Alcotest.(check bool) "delivered something" true (r.Injector.deliveries > 0)

let test_injector_over_crash () =
  let plan = Plan.over_crash ~n:3 ~required:2 ~seed:3 in
  let r, _ = run_abd ~plan ~seed:5 in
  match r.Injector.outcome with
  | Injector.Starved { reason = Oracle.Quorum_lost { live; required }; _ } ->
      Alcotest.(check int) "one server left" 1 live;
      Alcotest.(check int) "needs two" 2 required
  | o -> Alcotest.failf "expected quorum-lost starvation: %a" Injector.pp_outcome o

let test_injector_partition () =
  let plan = Plan.partition ~n:3 ~required:2 ~until:None ~seed:3 in
  let r, _ = run_abd ~plan ~seed:5 in
  match r.Injector.outcome with
  | Injector.Starved { reason = Oracle.Quorum_lost _; _ } -> ()
  | o -> Alcotest.failf "expected starvation: %a" Injector.pp_outcome o

let test_injector_healed_partition () =
  (* two of three servers frozen from step 0: nothing is enabled until
     the thaw, which the injector must fast-forward to *)
  let plan = Plan.partition ~n:3 ~required:2 ~until:(Some 50) ~seed:3 in
  let r, params = run_abd ~plan ~seed:5 in
  (match r.Injector.outcome with
  | Injector.Completed -> ()
  | o -> Alcotest.failf "healed partition must complete: %a" Injector.pp_outcome o);
  check_atomic params r

let test_injector_client_frozen () =
  let plan =
    Plan.make [ Plan.Freeze { step = 0; until = None; endpoint = Engine.Types.Client 1 } ]
  in
  let r, _ = run_abd ~plan ~seed:5 in
  match r.Injector.outcome with
  | Injector.Starved { reason = Oracle.Client_partitioned { client }; pending_clients; _ } ->
      Alcotest.(check int) "the frozen reader" 1 client;
      Alcotest.(check (list int)) "only it is pending" [ 1 ] pending_clients
  | o -> Alcotest.failf "expected client-partitioned: %a" Injector.pp_outcome o

let test_injector_deterministic () =
  let plan =
    Plan.random ~n:3 ~f:1 ~clients:2 ~horizon:40 ~seed:9 ~freezes:true
      ~policies:true ()
  in
  let run () =
    let r, _ = run_abd ~plan ~seed:17 in
    ( Format.asprintf "%a" Injector.pp_outcome r.Injector.outcome,
      Engine.Config.history r.Injector.config,
      r.Injector.steps,
      r.Injector.deliveries,
      r.Injector.vd_receipts )
  in
  Alcotest.(check bool) "byte-identical replay" true (run () = run ())

let test_injector_policies () =
  (* deterministic and starving policies still complete fault-free runs *)
  List.iter
    (fun policy ->
      let plan = Plan.make [ Plan.Set_policy { step = 0; policy } ] in
      let r, params = run_abd ~plan ~seed:11 in
      (match r.Injector.outcome with
      | Injector.Completed -> ()
      | o ->
          Alcotest.failf "policy %s wedged: %a"
            (Plan.to_string plan) Injector.pp_outcome o);
      check_atomic params r)
    [ Plan.First_key; Plan.Last_key; Plan.Starve (Engine.Types.Server 0);
      Plan.Starve (Engine.Types.Client 1) ]

let test_injector_validates () =
  let algo, _, c = abd_setup ~clients:2 in
  let bad_plan = Plan.make [ Plan.Crash { step = 0; server = 7 } ] in
  (match Injector.run algo c ~plan:bad_plan ~scripts:abd_scripts ~required:2 ~seed:1 with
  | _ -> Alcotest.fail "out-of-range server accepted"
  | exception Invalid_argument _ -> ());
  let bad_scripts = [ { Workload.client = 5; ops = [ Engine.Types.Read ] } ] in
  match Injector.run algo c ~plan:Plan.empty ~scripts:bad_scripts ~required:2 ~seed:1 with
  | _ -> Alcotest.fail "out-of-range client accepted"
  | exception Invalid_argument _ -> ()

(* ----- Shrink ----- *)

let test_shrink_minimizes () =
  let plan =
    Plan.make
      [
        Plan.Crash { step = 0; server = 0 };
        Plan.Crash { step = 3; server = 1 };
        Plan.Freeze { step = 2; until = Some 9; endpoint = Engine.Types.Server 2 };
        Plan.Set_policy { step = 1; policy = Plan.Last_key };
      ]
  in
  let scripts =
    [
      { Workload.client = 0; ops = [ Engine.Types.Write "a"; Engine.Types.Write "b" ] };
      { Workload.client = 1; ops = [ Engine.Types.Read; Engine.Types.Read; Engine.Types.Read ] };
    ]
  in
  (* the "failure" needs exactly: server 0 crashed, and at least one read *)
  let check p ss =
    List.mem 0 (Plan.crashed_servers p)
    && List.exists
         (fun s -> List.exists (fun o -> o = Engine.Types.Read) s.Workload.ops)
         ss
  in
  let p', ss', stats = Shrink.minimize ~check plan scripts in
  Alcotest.(check int) "single fault left" 1 (Plan.fault_count p');
  Alcotest.(check (list int)) "the right fault" [ 0 ] (Plan.crashed_servers p');
  let ops = List.fold_left (fun a s -> a + List.length s.Workload.ops) 0 ss' in
  Alcotest.(check int) "single op left" 1 ops;
  Alcotest.(check bool) "still failing" true (check p' ss');
  Alcotest.(check bool) "finished within budget" false stats.Shrink.gave_up;
  Alcotest.(check bool) "spent evals" true (stats.Shrink.evals > 0)

let test_shrink_budget () =
  let plan =
    Plan.make (List.init 8 (fun i -> Plan.Crash { step = i; server = i mod 3 }))
  in
  let _, _, stats = Shrink.minimize ~check:(fun _ _ -> false) ~max_evals:3 plan [] in
  Alcotest.(check bool) "budget respected" true (stats.Shrink.evals <= 3)

(* ----- Hammer campaign ----- *)

let test_campaign_clean () =
  let report = Hammer.campaign ~execs:30 ~seed:42 () in
  Alcotest.(check int) "all five algos" 5 (List.length report.Hammer.algos);
  List.iter
    (fun (a : Hammer.algo_report) ->
      if a.Hammer.violations <> [] then
        Alcotest.failf "%s violated: %s / %s" a.Hammer.algo
          (List.hd a.Hammer.violations).Hammer.kind
          (List.hd a.Hammer.violations).Hammer.detail;
      Alcotest.(check int)
        (a.Hammer.algo ^ " accounted") a.Hammer.execs
        (a.Hammer.completed + a.Hammer.starved_expected);
      Alcotest.(check bool)
        (a.Hammer.algo ^ " some starvation classes") true
        (a.Hammer.starved_expected > 0);
      Alcotest.(check bool)
        (a.Hammer.algo ^ " above the B.1 floor") true
        (a.Hammer.peak_norm >= a.Hammer.lower_norm))
    report.Hammer.algos;
  Alcotest.(check bool) "clean" false (Hammer.has_violations report)

let test_campaign_canary () =
  let report = Hammer.campaign ~execs:60 ~seed:42 ~canary:true ~algos:[ "abd" ] () in
  Alcotest.(check bool) "canary caught" true (Hammer.has_violations report);
  let a = List.hd report.Hammer.algos in
  Alcotest.(check string) "canary protocol name" "abd-canary" a.Hammer.proto;
  let shrunk =
    List.filter (fun v -> v.Hammer.shrunk_plan <> None) a.Hammer.violations
  in
  Alcotest.(check bool) "some violations were shrunk" true (shrunk <> []);
  (* a shrunk counterexample replays byte-identically *)
  let v = List.hd a.Hammer.violations in
  let replay () = Hammer.replay ~algo:"abd" ~exec:v.Hammer.exec ~seed:42 ~canary:true in
  Alcotest.(check string) "replay determinism" (replay ()) (replay ())

let test_report_json () =
  let report = Hammer.campaign ~execs:10 ~seed:7 ~algos:[ "abd"; "cas" ] () in
  let j = Hammer.report_to_json report in
  Alcotest.(check bool) "mentions both algos" true
    (contains j "\"abd\"" && contains j "\"cas\"");
  Alcotest.(check bool) "valid-ish json" true
    (String.length j > 2 && j.[0] = '{' && j.[String.length j - 1] = '}');
  let again = Hammer.report_to_json (Hammer.campaign ~execs:10 ~seed:7 ~algos:[ "abd"; "cas" ] ()) in
  Alcotest.(check string) "campaign + report deterministic" j again

let test_campaign_validates () =
  (match Hammer.campaign ~execs:1 ~algos:[ "nope" ] () with
  | _ -> Alcotest.fail "unknown algo accepted"
  | exception Invalid_argument _ -> ());
  match Hammer.campaign ~execs:0 () with
  | _ -> Alcotest.fail "execs = 0 accepted"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "round trip" `Quick test_plan_round_trip;
          Alcotest.test_case "validation" `Quick test_plan_validation;
          Alcotest.test_case "analysis" `Quick test_plan_analysis;
          Alcotest.test_case "exhaustive count" `Quick test_exhaustive_count;
          Alcotest.test_case "expectation" `Quick test_expectation;
          Alcotest.test_case "net round trip" `Quick test_net_round_trip;
          Alcotest.test_case "net qcheck codec" `Quick test_net_qcheck_round_trip;
          Alcotest.test_case "net validation" `Quick test_net_validation;
          Alcotest.test_case "net inert in injector" `Quick
            test_net_inert_in_injector;
        ] );
      ( "oracle",
        [ Alcotest.test_case "required quorum" `Quick test_required_quorum ] );
      ( "injector",
        [
          Alcotest.test_case "tolerated crash" `Quick test_injector_tolerated_crash;
          Alcotest.test_case "over-crash" `Quick test_injector_over_crash;
          Alcotest.test_case "partition" `Quick test_injector_partition;
          Alcotest.test_case "healed partition" `Quick test_injector_healed_partition;
          Alcotest.test_case "client frozen" `Quick test_injector_client_frozen;
          Alcotest.test_case "determinism" `Quick test_injector_deterministic;
          Alcotest.test_case "policies" `Quick test_injector_policies;
          Alcotest.test_case "input validation" `Quick test_injector_validates;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "minimizes" `Quick test_shrink_minimizes;
          Alcotest.test_case "budget" `Quick test_shrink_budget;
        ] );
      ( "hammer",
        [
          Alcotest.test_case "clean campaign" `Quick test_campaign_clean;
          Alcotest.test_case "canary caught" `Quick test_campaign_canary;
          Alcotest.test_case "json report" `Quick test_report_json;
          Alcotest.test_case "validation" `Quick test_campaign_validates;
        ] );
    ]
