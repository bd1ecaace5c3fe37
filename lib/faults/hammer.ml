(* Seeded hammer campaign.  See hammer.mli. *)

open Engine.Types

type violation = {
  exec : int;
  class_name : string;
  kind : string;
  detail : string;
  seed : int;
  plan : string;
  shrunk_plan : string option;
  shrunk_ops : int option;
  shrink_evals : int option;
}

type algo_report = {
  algo : string;
  proto : string;
  execs : int;
  completed : int;
  starved_expected : int;
  deliveries : int;
  violations : violation list;
  plan_mix : (string * int) list;
  peak_norm : float;
  upper_norm : float;
  lower_norm : float;
}

type report = {
  base_seed : int;
  execs_per_algo : int;
  canary : bool;
  algos : algo_report list;
}

(* ----- campaign setups ----- *)

type setup = {
  key : string;
  writers : int;
  readers : int;
  n : int;
  f : int;
  k : int;
  atomic : bool;  (* atomicity vs (single-writer) regularity check *)
}

let setups =
  [
    { key = "abd"; writers = 1; readers = 2; n = 3; f = 1; k = 1; atomic = true };
    {
      key = "abd-mw";
      writers = 2;
      readers = 2;
      n = 3;
      f = 1;
      k = 1;
      atomic = true;
    };
    { key = "cas"; writers = 2; readers = 2; n = 4; f = 1; k = 2; atomic = true };
    {
      key = "gossip-rep";
      writers = 1;
      readers = 2;
      n = 3;
      f = 1;
      k = 1;
      atomic = false;
    };
    { key = "awe"; writers = 2; readers = 2; n = 4; f = 1; k = 2; atomic = true };
  ]

let algo_names = List.map (fun s -> s.key) setups

let find_setup key =
  match List.find_opt (fun s -> String.equal s.key key) setups with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "Hammer: unknown algorithm %S (use %s)" key
           (String.concat ", " algo_names))

(* The planted bug: ABD whose client credits every server response
   once more, attributed to a phantom neighbour — each quorum wait
   effectively completes one real response early (off by one at the
   campaign's quorum of two).  Write and read quorums stop
   intersecting, so stale reads slip through. *)
let canary_abd =
  let base = Algorithms.Abd.algo in
  let on_client_msg params ~me cs ~src m =
    let cs1, outs1, resp1 = base.on_client_msg params ~me cs ~src m in
    match (resp1, src) with
    | None, Server s ->
        let phantom = Server ((s + 1) mod params.n) in
        let cs2, outs2, resp2 =
          base.on_client_msg params ~me cs1 ~src:phantom m
        in
        (cs2, outs1 @ outs2, resp2)
    | _, _ -> (cs1, outs1, resp1)
  in
  { base with name = "abd-canary"; on_client_msg }

type 'r algo_user = { use : 'ss 'cs 'm. ('ss, 'cs, 'm) Engine.Types.algo -> 'r }

let dispatch ~key ~canary { use } =
  match key with
  | "abd" -> use (if canary then canary_abd else Algorithms.Abd.algo)
  | "abd-mw" -> use Algorithms.Abd_mw.algo
  | "cas" -> use Algorithms.Cas.algo
  | "gossip-rep" -> use Algorithms.Gossip_rep.algo
  | "awe" -> use Algorithms.Awe.algo
  | other -> invalid_arg (Printf.sprintf "Hammer: unknown algorithm %S" other)

(* ----- per-execution derivations ----- *)

let horizon = 40
let exec_stride = 1_000_003
let max_steps = 20_000

let key_offset key = String.fold_left (fun a c -> (a * 31) + Char.code c) 7 key

let exec_seed ~key ~seed ~exec = seed + (exec * exec_stride) + key_offset key

let class_names =
  [|
    "none";
    "crashes";
    "freezes";
    "mixed";
    "targeted";
    "over-crash";
    "partition";
    "healed-partition";
    "rotating-starve";
    "det-policy";
  |]

(* [probe] lazily yields the value-dependent receipt observations of
   the fault-free twin of this execution (class 4's adversary input) *)
let plan_for ~(params : params) ~clients ~required ~exec ~seed ~probe =
  let class_id = exec mod 10 in
  let plan =
    match class_id with
    | 0 -> Plan.empty
    | 1 ->
        Plan.random ~n:params.n ~f:params.f ~clients ~horizon ~seed ()
    | 2 ->
        Plan.random ~n:params.n ~f:params.f ~clients ~horizon ~seed
          ~freezes:true ()
    | 3 ->
        Plan.random ~n:params.n ~f:params.f ~clients ~horizon ~seed
          ~freezes:true ~policies:true ()
    | 4 -> Plan.targeted ~receipts:(probe ()) ~count:params.f
    | 5 -> Plan.over_crash ~n:params.n ~required ~seed
    | 6 -> Plan.partition ~n:params.n ~required ~until:None ~seed
    | 7 -> Plan.partition ~n:params.n ~required ~until:(Some 30) ~seed
    | 8 -> Plan.rotating_starve ~n:params.n ~period:8 ~rounds:6
    | _ ->
        Plan.make
          [
            Set_policy
              {
                step = 0;
                policy =
                  (if exec land 16 = 0 then Plan.First_key else Plan.Last_key);
              };
          ]
  in
  (class_names.(class_id), plan)

let scripts_for ~(params : params) ~writers ~readers ~seed =
  let values =
    Workload.unique_values ~count:(2 * writers) ~len:params.value_len ~seed
  in
  Workload.mixed_scripts ~writers ~readers ~values ~reads_per_reader:2

(* ----- the campaign ----- *)

let shrink_budget = 5
let shrink_max_evals = 150

let count_ops scripts =
  List.fold_left
    (fun acc (s : Workload.script) -> acc + List.length s.ops)
    0 scripts

(* ----- the execution harness, engine-generic ----- *)

(* One harness drives both engines: the arena engine is the default
   (campaigns reuse a single mutable configuration via [E.reset]);
   the pure engine remains available as the differential oracle.
   Reports and replays are byte-identical across engines. *)
module Exec (E : Engine.Engine_sig.S) = struct
  module I = Injector.Make (E)

  let violation_of ~checker ~(params : params) ~required plan
      (res : ('ss, 'cs, 'm) I.result) =
    let h = Consistency.History.of_events (E.history res.config) in
    match checker h with
    | Consistency.Checker.Invalid why -> Some ("consistency", why)
    | Consistency.Checker.Valid -> (
        let expect = Plan.expectation plan ~n:params.n ~required in
        match res.outcome with
        | Injector.Completed -> (
            match expect with
            | Some Plan.Must_starve ->
                Some
                  ( "missed-starvation",
                    "all operations completed under a quorum-killing plan" )
            | Some Plan.Must_complete | None -> None)
        | Injector.Starved { step; pending_clients; reason } -> (
            match (expect, reason) with
            | Some Plan.Must_complete, _ ->
                Some
                  ( "liveness",
                    Format.asprintf
                      "starved at step %d (%a) under a plan that must complete"
                      step Oracle.pp_reason reason )
            | _, Oracle.No_progress ->
                Some
                  ( "liveness",
                    Printf.sprintf
                      "starved at step %d with a live quorum and no frozen \
                       client (pending [%s])"
                      step
                      (String.concat ","
                         (List.map string_of_int pending_clients)) )
            | ( (Some Plan.Must_starve | None),
                (Oracle.Quorum_lost _ | Oracle.Client_partitioned _) ) ->
                None)
        | Injector.Step_limit ->
            Some ("step-limit", "hit the step limit without quiescing"))

  let run_algo ~setup ~execs ~seed ~canary =
    let { key; writers; readers; n; f; k; atomic } = setup in
    dispatch ~key ~canary
      {
        use =
          (fun algo ->
            (* delta must cover every write that can overlap a read: a
               read delayed by a crash epoch spans the whole rest of the
               run, so the honest concurrency bound is the workload's
               total write count — otherwise CAS/AWE garbage collection
               may discard the symbols a blocked read still needs (their
               documented liveness caveat, not a bug). *)
            let params =
              Engine.Types.params ~n ~f ~k ~delta:(2 * writers) ~value_len:6 ()
            in
            let clients = writers + readers in
            let required = Oracle.required_quorum ~algo_name:algo.name params in
            let init = Algorithms.Common.initial_value params in
            let checker h =
              if atomic then Consistency.Checker.atomic ~init h
              else Consistency.Checker.regular ~init h
            in
            let peak = Storage.create_peak () in
            let observer c =
              Storage.peak_observe peak
                ~total:(E.total_storage_bits algo c)
                ~max_server:(E.max_storage_bits algo c)
            in
            (* one configuration per algorithm; [E.reset] reuses the
               arena across every execution of the campaign *)
            let base_config = E.make algo params ~clients in
            let run_exec ?(observe = false) ~plan ~scripts ~exec_seed () =
              let config = E.reset algo base_config in
              if observe then
                I.run ~observer ~max_steps algo config ~plan ~scripts
                  ~required ~seed:exec_seed
              else
                I.run ~max_steps algo config ~plan ~scripts ~required
                  ~seed:exec_seed
            in
            let completed = ref 0 in
            let starved_expected = ref 0 in
            let deliveries = ref 0 in
            let violations = ref [] in
            let n_shrunk = ref 0 in
            let mix = Array.make (Array.length class_names) 0 in
            for exec = 0 to execs - 1 do
              let es = exec_seed ~key ~seed ~exec in
              let scripts = scripts_for ~params ~writers ~readers ~seed:es in
              let probe () =
                (run_exec ~plan:Plan.empty ~scripts ~exec_seed:es ())
                  .I.vd_receipts
              in
              let class_name, plan =
                plan_for ~params ~clients ~required ~exec ~seed:es ~probe
              in
              mix.(exec mod 10) <- mix.(exec mod 10) + 1;
              let res = run_exec ~observe:true ~plan ~scripts ~exec_seed:es () in
              deliveries := !deliveries + res.I.deliveries;
              match violation_of ~checker ~params ~required plan res with
              | None -> (
                  match res.I.outcome with
                  | Injector.Completed -> incr completed
                  | Injector.Starved _ -> incr starved_expected
                  | Injector.Step_limit -> ())
              | Some (kind, detail) ->
                  let shrunk =
                    if !n_shrunk >= shrink_budget then None
                    else begin
                      incr n_shrunk;
                      let check p ss =
                        (* an op-less workload "completes" vacuously, so
                           it can never witness a failure *)
                        count_ops ss > 0
                        &&
                        let res = run_exec ~plan:p ~scripts:ss ~exec_seed:es () in
                        match
                          violation_of ~checker ~params ~required p res
                        with
                        | Some (k, _) -> String.equal k kind
                        | None -> false
                      in
                      Some
                        (Shrink.minimize ~check ~max_evals:shrink_max_evals plan
                           scripts)
                    end
                  in
                  let v =
                    {
                      exec;
                      class_name;
                      kind;
                      detail;
                      seed = es;
                      plan = Plan.to_string plan;
                      shrunk_plan =
                        Option.map
                          (fun (p, _, _) -> Plan.to_string p)
                          shrunk;
                      shrunk_ops =
                        Option.map (fun (_, ss, _) -> count_ops ss) shrunk;
                      shrink_evals =
                        Option.map
                          (fun (_, _, (st : Shrink.stats)) -> st.evals)
                          shrunk;
                    }
                  in
                  violations := v :: !violations
            done;
            let bp = Bounds.params ~n ~f in
            let upper_norm =
              if String.equal key "cas" || String.equal key "awe" then
                Bounds.norm_erasure bp ~nu:writers
              else float_of_int n
            in
            {
              algo = key;
              proto = algo.name;
              execs;
              completed = !completed;
              starved_expected = !starved_expected;
              deliveries = !deliveries;
              violations = List.rev !violations;
              plan_mix =
                List.filter
                  (fun (_, count) -> count > 0)
                  (List.mapi
                     (fun i name -> (name, mix.(i)))
                     (Array.to_list class_names));
              peak_norm =
                (if Storage.peak_samples peak = 0 then 0.0
                 else
                   Storage.normalized peak ~value_len:params.value_len);
              upper_norm;
              lower_norm = Bounds.norm_singleton bp;
            })
      }

  let replay ~algo:key ~exec ~seed ~canary =
    let setup = find_setup key in
    let { key; writers; readers; n; f; k; atomic = _ } = setup in
    dispatch ~key ~canary:(canary && String.equal key "abd")
      {
        use =
          (fun algo ->
            let params =
              Engine.Types.params ~n ~f ~k ~delta:(2 * writers) ~value_len:6 ()
            in
            let clients = writers + readers in
            let required = Oracle.required_quorum ~algo_name:algo.name params in
            let es = exec_seed ~key ~seed ~exec in
            let scripts = scripts_for ~params ~writers ~readers ~seed:es in
            let base_config = E.make algo params ~clients in
            let run_exec ~plan =
              let config = E.reset algo base_config in
              I.run ~max_steps algo config ~plan ~scripts ~required
                ~seed:es
            in
            let probe () = (run_exec ~plan:Plan.empty).I.vd_receipts in
            let class_name, plan =
              plan_for ~params ~clients ~required ~exec ~seed:es ~probe
            in
            let res = run_exec ~plan in
            let buf = Buffer.create 512 in
            Buffer.add_string buf
              (Printf.sprintf "algo %s exec %d seed %d engine %s class %s plan %S\n"
                 key exec es
                 (Engine.Types.engine_kind_to_string E.kind)
                 class_name (Plan.to_string plan));
            Buffer.add_string buf
              (Format.asprintf "outcome %a, %d steps, %d deliveries\n"
                 Injector.pp_outcome res.I.outcome res.I.steps
                 res.I.deliveries);
            List.iter
              (fun e ->
                Buffer.add_string buf (Format.asprintf "%a\n" pp_event e))
              (E.history res.I.config);
            Buffer.contents buf)
      }
end

module Exec_pure = Exec (Engine.Config)
module Exec_arena = Exec (Engine.Mconfig)

let run_algo_for = function
  | Engine.Engine_sig.Pure -> Exec_pure.run_algo
  | Engine.Engine_sig.Arena -> Exec_arena.run_algo

let campaign ?(execs = 1000) ?(seed = 42) ?(canary = false) ?algos
    ?(engine = Engine.Engine_sig.Arena) () =
  if execs < 1 then invalid_arg "Hammer.campaign: execs must be >= 1";
  let selected =
    match algos with
    | None -> setups
    | Some keys -> List.map find_setup keys
  in
  {
    base_seed = seed;
    execs_per_algo = execs;
    canary;
    algos =
      List.map
        (fun setup ->
          run_algo_for engine ~setup ~execs ~seed
            ~canary:(canary && String.equal setup.key "abd"))
        selected;
  }

let has_violations r =
  List.exists
    (fun a -> match a.violations with [] -> false | _ :: _ -> true)
    r.algos

(* ----- rendering ----- *)

let pp_report fmt r =
  Format.fprintf fmt
    "hammer campaign: %d execs/algo, base seed %d%s@."
    r.execs_per_algo r.base_seed
    (if r.canary then ", CANARY ARMED (abd sabotaged)" else "");
  List.iter
    (fun a ->
      Format.fprintf fmt
        "@.%-12s (%s): %d execs, %d completed, %d starved-as-expected, %d \
         violations; %d deliveries@."
        a.algo a.proto a.execs a.completed a.starved_expected
        (List.length a.violations)
        a.deliveries;
      Format.fprintf fmt "  plan mix: %s@."
        (String.concat ", "
           (List.map
              (fun (name, count) -> Printf.sprintf "%s:%d" name count)
              a.plan_mix));
      Format.fprintf fmt
        "  storage: peak %.2f x log2|V| (upper-bound curve %.2f, Thm B.1 \
         floor %.2f)@."
        a.peak_norm a.upper_norm a.lower_norm;
      List.iter
        (fun v ->
          Format.fprintf fmt
            "  VIOLATION exec %d [%s] %s: %s@.    seed %d, plan %S@." v.exec
            v.class_name v.kind v.detail v.seed v.plan;
          match v.shrunk_plan with
          | Some p ->
              Format.fprintf fmt
                "    shrunk: plan %S, %d ops (%d oracle evals)@." p
                (Option.value v.shrunk_ops ~default:0)
                (Option.value v.shrink_evals ~default:0)
          | None -> ())
        a.violations)
    r.algos

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let json_opt f = function Some x -> f x | None -> "null"

let violation_to_json v =
  Printf.sprintf
    {|{"exec": %d, "class": %s, "kind": %s, "detail": %s, "seed": %d, "plan": %s, "shrunk_plan": %s, "shrunk_ops": %s, "shrink_evals": %s}|}
    v.exec (json_string v.class_name) (json_string v.kind)
    (json_string v.detail) v.seed (json_string v.plan)
    (json_opt json_string v.shrunk_plan)
    (json_opt string_of_int v.shrunk_ops)
    (json_opt string_of_int v.shrink_evals)

let algo_to_json a =
  Printf.sprintf
    {|{"algo": %s, "proto": %s, "execs": %d, "completed": %d, "starved_expected": %d, "deliveries": %d, "peak_norm": %.4f, "upper_norm": %.4f, "lower_norm": %.4f, "plan_mix": {%s}, "violations": [%s]}|}
    (json_string a.algo) (json_string a.proto) a.execs a.completed
    a.starved_expected a.deliveries a.peak_norm a.upper_norm a.lower_norm
    (String.concat ", "
       (List.map
          (fun (name, count) ->
            Printf.sprintf "%s: %d" (json_string name) count)
          a.plan_mix))
    (String.concat ", " (List.map violation_to_json a.violations))

let report_to_json r =
  Printf.sprintf
    {|{"base_seed": %d, "execs_per_algo": %d, "canary": %b, "algos": [%s]}|}
    r.base_seed r.execs_per_algo r.canary
    (String.concat ", " (List.map algo_to_json r.algos))

let replay ~algo ~exec ~seed ~canary = Exec_arena.replay ~algo ~exec ~seed ~canary
