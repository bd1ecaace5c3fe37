(* Reduced-vs-exhaustive differential harness for the model checker's
   state-space reductions (Engine.Reduction / Engine.Explore):

   - the unreduced search ([--reduce none]) is the oracle; every
     reduction (dpor sleep sets, server-symmetry canonicalization, and
     their composition) must produce EXACTLY the same sorted terminal-
     and deadlock-history key sets on every closing scope, on both
     engines and at 1, 2 and 4 domains;
   - sleep sets prune edges, never states, so the DPOR-only state
     count must equal the oracle's;
   - qcheck properties: symmetry canonicalization is invariant under
     random server permutations of a reachable configuration, and
     canonicalizing the canonical representative is a fixpoint;
   - the spill store refuses to resume over leftover runs and is
     transparent to the search results.

   Under SMEC_EXPLORE_CANARY=1 the independence relation is
   deliberately unsound (same-server deliveries declared independent);
   the differential cases below MUST then fail — check.sh and CI
   assert that this binary exits nonzero with the canary set. *)

open Engine

let keys hs = List.map Explore.history_key hs

let check_closed name (r : Explore.run_result) =
  Alcotest.(check bool) (name ^ ": closed") false r.Explore.stats.Explore.truncated

(* One differential row.  For every reduction (none, dpor, sym, all)
   the pure engine at [reference] domains is the reference run; every
   other run of the row — the pure engine at each count in [pure], the
   arena engine at each count in [arena] — must reproduce its
   run_result exactly: same digests, so same state count (under
   symmetry too: those runs count the same orbit representatives),
   terminal set and deadlock set on a closed space.  Each reduced
   reference must in turn yield the oracle's (the unreduced
   reference's) sorted terminal and deadlock key sets, and, without
   symmetry, its state count.  The references run at 2 domains by
   default: their results are asserted identical to every other run
   anyway, and on a multi-core host that halves the slowest runs of
   the matrix. *)
let differential ?(reference = 2) ?(pure = []) ?(arena = [ 1 ]) ~name
    ~max_states algo params ~clients ~scripts () =
  let run engine ~domains ~reduce =
    Explore.run ~max_states ~domains ~engine ~reduce algo
      (Config.make algo params ~clients)
      ~scripts
  in
  let tag reduce engine domains =
    Printf.sprintf "%s/%s/%s/d%d" name (Reduction.to_string reduce)
      (Engine_sig.kind_to_string engine)
      domains
  in
  let same tag (expect : Explore.run_result) (r : Explore.run_result) ~states =
    check_closed tag r;
    Alcotest.(check (list string))
      (tag ^ ": terminal keys")
      (keys expect.Explore.histories)
      (keys r.Explore.histories);
    Alcotest.(check (list string))
      (tag ^ ": deadlock keys")
      (keys expect.Explore.deadlocks)
      (keys r.Explore.deadlocks);
    if states then
      Alcotest.(check int)
        (tag ^ ": states")
        expect.Explore.stats.Explore.states_explored
        r.Explore.stats.Explore.states_explored
  in
  let others =
    List.map (fun d -> (Engine_sig.Pure, d)) pure
    @ List.map (fun d -> (Engine_sig.Arena, d)) arena
  in
  let against reduce expect =
    List.iter
      (fun (engine, domains) ->
        same (tag reduce engine domains) expect
          (run engine ~domains ~reduce)
          ~states:true)
      others
  in
  let oracle = run Engine_sig.Pure ~domains:reference ~reduce:Reduction.none in
  check_closed (name ^ "/oracle") oracle;
  against Reduction.none oracle;
  List.iter
    (fun reduce ->
      let r = run Engine_sig.Pure ~domains:reference ~reduce in
      (* sleep sets alone prune edges, never states *)
      same
        (tag reduce Engine_sig.Pure reference)
        oracle r ~states:(not reduce.Reduction.sym);
      against reduce r)
    [ Reduction.dpor; Reduction.sym; Reduction.all ]

let wr_scripts = [ (0, [ Types.Write "a" ]); (1, [ Types.Read ]) ]

let params31 = Types.params ~n:3 ~f:1 ~k:1 ~delta:2 ~value_len:1 ()

let test_abd_n3 () =
  differential ~name:"abd-n3" ~max_states:300_000 ~pure:[ 1; 4 ]
    ~arena:[ 1; 2; 4 ]
    Algorithms.Abd.algo params31 ~clients:2 ~scripts:wr_scripts ()

let test_swsr_n3 () =
  differential ~name:"swsr-n3" ~max_states:300_000 ~pure:[ 1; 4 ]
    ~arena:[ 1; 2; 4 ]
    Algorithms.Abd.regular_algo params31 ~clients:2 ~scripts:wr_scripts ()

let test_abd_mw_n3 () =
  differential ~name:"abd-mw-n3" ~max_states:300_000 Algorithms.Abd_mw.algo
    params31 ~clients:2 ~scripts:wr_scripts ()

let test_cas_n3 () =
  differential ~name:"cas-n3" ~max_states:300_000 Algorithms.Cas.algo params31
    ~clients:2 ~scripts:wr_scripts ()

let test_gossip_n3 () =
  differential ~name:"gossip-n3" ~max_states:300_000 Algorithms.Gossip_rep.algo
    params31 ~clients:2 ~scripts:wr_scripts ()

(* Two concurrent writers with an observing reader: the scope whose
   histories depend on same-server delivery order — the one the canary
   (unsoundly treating those as independent) visibly corrupts. *)
let test_abd_two_writers () =
  let params = Types.params ~n:2 ~f:0 ~k:1 ~delta:2 ~value_len:1 () in
  let scripts =
    [ (0, [ Types.Write "a" ]); (1, [ Types.Write "b" ]); (2, [ Types.Read ]) ]
  in
  differential ~name:"abd-2w1r-n2" ~max_states:300_000 ~pure:[ 1; 4 ]
    ~arena:[ 1; 2; 4 ]
    Algorithms.Abd.algo params ~clients:3 ~scripts ()

(* n = 4: larger orbit group (4! = 24), parallel pure reference to
   keep the row affordable. *)
let test_abd_n4 () =
  let params = Types.params ~n:4 ~f:1 ~k:1 ~delta:2 ~value_len:1 () in
  differential ~name:"abd-n4" ~max_states:600_000 ~reference:4 ~arena:[ 1; 4 ]
    Algorithms.Abd.algo params ~clients:2 ~scripts:wr_scripts ()

(* ----- qcheck: canonicalization properties ----- *)

(* A recorded random walk: the concrete moves in order, so the same
   walk can be replayed through a server relabeling. *)
type wmove =
  | Winvoke of int * Types.op
  | Wdeliver of Types.endpoint * Types.endpoint

let random_walk algo params ~clients ~scripts ~steps ~seed =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let remaining = Array.make clients [] in
  List.iter (fun (c, ops) -> remaining.(c) <- ops) scripts;
  let cfg = ref (Config.make algo params ~clients) in
  let chosen = ref [] in
  (try
     for _ = 1 to steps do
       let invokes =
         List.concat
           (List.init clients (fun c ->
                match (remaining.(c), Config.pending_op !cfg c) with
                | op :: _, None -> [ Winvoke (c, op) ]
                | _ -> []))
       in
       let delivers =
         List.map
           (fun (Config.Deliver (src, dst)) -> Wdeliver (src, dst))
           (Config.enabled !cfg)
       in
       match invokes @ delivers with
       | [] -> raise Exit
       | ms -> (
           let m = List.nth ms (Random.State.int rng (List.length ms)) in
           chosen := m :: !chosen;
           match m with
           | Winvoke (c, op) ->
               remaining.(c) <- List.tl remaining.(c);
               cfg := snd (Config.invoke algo !cfg ~client:c op)
           | Wdeliver (src, dst) ->
               cfg :=
                 Option.get
                   (Config.step_deliver algo !cfg (Config.Deliver (src, dst))))
     done
   with Exit -> ());
  (!cfg, List.rev !chosen)

(* Replay a recorded walk with every server index pushed through
   [relab].  Equivariance of a server-symmetric algorithm (from a
   permutation-invariant initial configuration) guarantees each
   relabeled move is enabled. *)
let replay algo params ~clients relab ms =
  let map_ep = function
    | Types.Server i -> Types.Server (relab i)
    | Types.Client _ as e -> e
  in
  List.fold_left
    (fun cfg m ->
      match m with
      | Winvoke (c, op) -> snd (Config.invoke algo cfg ~client:c op)
      | Wdeliver (src, dst) ->
          Option.get
            (Config.step_deliver algo cfg
               (Config.Deliver (map_ep src, map_ep dst))))
    (Config.make algo params ~clients)
    ms

let canonical_bytes algo cfg =
  let perm = Reduction.canonical_perm algo cfg in
  let b = Buffer.create 512 in
  Reduction.encode_canonical ~into:b ~perm algo cfg;
  Buffer.contents b

let random_perm rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let walk_scripts =
  [ (0, [ Types.Write "a"; Types.Read ]); (1, [ Types.Read; Types.Write "b" ]) ]

let perm_invariance_prop (type ss cs m) name (algo : (ss, cs, m) Types.algo) =
  QCheck.Test.make ~name ~count:60
    QCheck.(pair small_int small_int)
    (fun (seed, steps) ->
      let params = params31 in
      let steps = 5 + (steps mod 40) in
      let cfg, walk =
        random_walk algo params ~clients:2 ~scripts:walk_scripts ~steps ~seed
      in
      let rng = Random.State.make [| seed; 0x9e2 |] in
      let pi = random_perm rng params.Types.n in
      let cfg_pi = replay algo params ~clients:2 (fun i -> pi.(i)) walk in
      (* invariance: the canonical encoding identifies the orbit *)
      String.equal (canonical_bytes algo cfg) (canonical_bytes algo cfg_pi))

let idempotence_prop (type ss cs m) name (algo : (ss, cs, m) Types.algo) =
  QCheck.Test.make ~name ~count:60 QCheck.small_int (fun seed ->
      let params = params31 in
      let cfg, walk =
        random_walk algo params ~clients:2 ~scripts:walk_scripts ~steps:30 ~seed
      in
      let perm = Reduction.canonical_perm algo cfg in
      (* a valid permutation ... *)
      let n = params.Types.n in
      let hit = Array.make n false in
      Array.iter (fun p -> hit.(p) <- true) perm;
      Array.for_all Fun.id hit
      (* ... determinism of the encoding ... *)
      && String.equal (canonical_bytes algo cfg) (canonical_bytes algo cfg)
      (* ... and canonicalizing the representative is a fixpoint: the
         walk replayed through the canonical permutation itself lands
         on a configuration with the same canonical encoding *)
      &&
      let cfg_rep = replay algo params ~clients:2 (fun i -> perm.(i)) walk in
      String.equal (canonical_bytes algo cfg) (canonical_bytes algo cfg_rep))

(* ----- spill store ----- *)

let temp_spill_dir () =
  (* unique path without a Unix dependency: claim a temp file name,
     then replace the file with a directory *)
  let path = Filename.temp_file "smec-spill" "" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  path

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_spill_roundtrip () =
  let dir = temp_spill_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sp =
    match Reduction.Spill.create ~dir with
    | Ok sp -> sp
    | Error e -> Alcotest.failf "create: %s" e
  in
  let digest i = Digest.string (string_of_int i) in
  let members = List.init 100 digest |> List.sort_uniq String.compare in
  Reduction.Spill.spill sp ~shard:7 members;
  Alcotest.(check int) "one run" 1 (Reduction.Spill.runs sp);
  List.iter
    (fun d ->
      Alcotest.(check bool) "member found" true (Reduction.Spill.mem sp ~shard:7 d))
    members;
  List.iter
    (fun i ->
      Alcotest.(check bool)
        "non-member absent" false
        (Reduction.Spill.mem sp ~shard:7 (digest (1000 + i))))
    (List.init 100 Fun.id);
  Alcotest.(check bool)
    "other shard empty" false
    (Reduction.Spill.mem sp ~shard:8 (List.hd members));
  Reduction.Spill.close sp;
  Alcotest.(check (array string)) "runs deleted" [||] (Sys.readdir dir)

let test_spill_refuses_resume () =
  let dir = temp_spill_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* a leftover run from a crashed exploration: resuming over it would
     treat its digests as already explored and silently undercount *)
  let oc = open_out (Filename.concat dir "shard000-000000.run") in
  output_string oc (Digest.string "stale");
  close_out oc;
  (match Reduction.Spill.create ~dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "create over leftover runs must be refused");
  (* the search surfaces the refusal instead of starting *)
  match
    Explore.run ~spill_dir:dir Algorithms.Abd.algo
      (Config.make Algorithms.Abd.algo params31 ~clients:2)
      ~scripts:wr_scripts
  with
  | _ -> Alcotest.fail "search over leftover runs must be refused"
  | exception Invalid_argument _ -> ()

let test_spill_missing_dir () =
  match Reduction.Spill.create ~dir:"/nonexistent/smec-spill" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "create on a missing dir must fail"

(* end-to-end: an aggressive spill threshold must not change any
   result, and the runs must be cleaned up afterwards *)
let test_spill_transparent () =
  let dir = temp_spill_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let algo = Algorithms.Abd.algo in
  let run ?spill_dir ?spill_threshold () =
    Explore.run ?spill_dir ?spill_threshold ~reduce:Reduction.all algo
      (Config.make algo params31 ~clients:2)
      ~scripts:wr_scripts
  in
  let plain = run () in
  let spilled = run ~spill_dir:dir ~spill_threshold:8 () in
  Alcotest.(check (list string))
    "terminal keys unchanged"
    (keys plain.Explore.histories)
    (keys spilled.Explore.histories);
  Alcotest.(check int)
    "states unchanged" plain.Explore.stats.Explore.states_explored
    spilled.Explore.stats.Explore.states_explored;
  Alcotest.(check (array string)) "runs cleaned up" [||] (Sys.readdir dir)

let () =
  Alcotest.run "reduction"
    [
      ( "differential-n3",
        [
          Alcotest.test_case "abd" `Quick test_abd_n3;
          Alcotest.test_case "swsr" `Quick test_swsr_n3;
          Alcotest.test_case "abd-mw" `Quick test_abd_mw_n3;
          Alcotest.test_case "cas" `Quick test_cas_n3;
          Alcotest.test_case "gossip" `Quick test_gossip_n3;
          Alcotest.test_case "abd two writers" `Quick test_abd_two_writers;
        ] );
      ( "differential-n4",
        [ Alcotest.test_case "abd" `Slow test_abd_n4 ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            perm_invariance_prop "abd canonicalization pi-invariant"
              Algorithms.Abd.algo;
            perm_invariance_prop "cas k=1 canonicalization pi-invariant"
              Algorithms.Cas.algo;
            idempotence_prop "abd canonicalization idempotent"
              Algorithms.Abd.algo;
            idempotence_prop "cas k=1 canonicalization idempotent"
              Algorithms.Cas.algo;
          ] );
      ( "spill",
        [
          Alcotest.test_case "roundtrip" `Quick test_spill_roundtrip;
          Alcotest.test_case "refuses resume" `Quick test_spill_refuses_resume;
          Alcotest.test_case "missing dir" `Quick test_spill_missing_dir;
          Alcotest.test_case "transparent" `Quick test_spill_transparent;
        ] );
    ]
