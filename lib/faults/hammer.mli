(** The seeded hammer campaign: many fault-injected executions per
    algorithm, each checked for consistency, liveness, and storage,
    with failing seeds shrunk to minimal replayable counterexamples.

    Every execution [i] of a campaign is fully determined by
    [(algo, base seed, i)]: the exec seed derives the fault plan (one
    of ten plan classes, round-robin by [i mod 10]), the operation
    scripts, and the scheduler randomness, so any execution — and any
    violation — replays exactly from the numbers in the report.

    The ten plan classes: fault-free, random ≤ f crashes, random
    crashes + freeze windows, crashes + freezes + policy switches, the
    targeted value-dependent-receipt adversary, quorum-killing
    over-crash (starvation expected and verified), permanent partition
    (ditto), healed partition, rotating channel starvation, and
    deterministic first/last-key schedules.

    A violation is one of:
    - ["consistency"] — the checker rejected the history (atomicity, or
      regularity for the regular protocol);
    - ["liveness"] — an execution starved although its plan guarantees
      completion, or starved with a live quorum and no frozen client;
    - ["missed-starvation"] — an execution completed although its plan
      kills a quorum from step 0;
    - ["step-limit"] — the injector hit its step budget (a hang). *)

type violation = {
  exec : int;  (** execution index within the campaign *)
  class_name : string;  (** plan class of the execution *)
  kind : string;
  detail : string;
  seed : int;  (** exec seed: replays the execution exactly *)
  plan : string;  (** serialized {!Plan.t} ({!Plan.of_string} replays) *)
  shrunk_plan : string option;  (** minimized plan, when shrinking ran *)
  shrunk_ops : int option;  (** script ops remaining after shrinking *)
  shrink_evals : int option;  (** oracle evaluations the shrink spent *)
}

type algo_report = {
  algo : string;  (** campaign key, e.g. ["abd"] *)
  proto : string;  (** the protocol's own name, e.g. ["abd-swmr"] *)
  execs : int;
  completed : int;
  starved_expected : int;  (** starved runs whose plan predicted it *)
  deliveries : int;  (** total messages delivered across the campaign *)
  violations : violation list;
  plan_mix : (string * int) list;  (** executions per plan class *)
  peak_norm : float;
      (** campaign-wide peak total storage / [log2 |V|] — comparable to
          the Figure 1 y-axis *)
  upper_norm : float;  (** the algorithm's Figure-1 upper-bound curve *)
  lower_norm : float;  (** Theorem B.1 floor [n / (n - f)] *)
}

type report = {
  base_seed : int;
  execs_per_algo : int;
  canary : bool;
  algos : algo_report list;
}

val algo_names : string list
(** Campaign keys, in campaign order:
    [["abd"; "abd-mw"; "cas"; "gossip-rep"; "awe"]]. *)

type 'r algo_user = {
  use : 'ss 'cs 'm. ('ss, 'cs, 'm) Engine.Types.algo -> 'r;
}
(** Existential dispatch over the campaign algorithms: a caller that
    works for any state/message types. *)

val dispatch : key:string -> canary:bool -> 'r algo_user -> 'r
(** Run [use] on the algorithm named by a campaign [key] ([canary]
    swaps in the sabotaged ABD client when the key is ["abd"]).  Also
    the dispatch point for the wire runtime ([smec serve] / [smec
    load] / [smec refine]), which needs the same key-to-record map.
    @raise Invalid_argument on an unknown key. *)

val campaign :
  ?execs:int ->
  ?seed:int ->
  ?canary:bool ->
  ?algos:string list ->
  ?engine:Engine.Engine_sig.kind ->
  unit ->
  report
(** Run [execs] (default 1000) executions per selected algorithm
    (default: all).  [canary] (default false) replaces ABD's client
    with a quorum-off-by-one saboteur that counts a phantom extra ack
    per server response — the planted bug the harness must catch.
    The first few violations per algorithm are shrunk
    ({!Shrink.minimize}) before reporting.  [engine] (default [Arena])
    selects the execution engine; reports are byte-identical across
    engines — the arena engine just reuses one mutable configuration
    per algorithm via [reset] instead of allocating one per execution.
    @raise Invalid_argument on an unknown algorithm key or
    [execs < 1]. *)

val has_violations : report -> bool

val pp_report : Format.formatter -> report -> unit

val report_to_json : report -> string

val replay : algo:string -> exec:int -> seed:int -> canary:bool -> string
(** Re-run one campaign execution on the arena engine and render it:
    plan class and plan, outcome, step/delivery counts, and the full
    event history.  Calling twice with equal arguments returns
    byte-identical strings — the determinism contract counterexample
    reports rely on.
    @raise Invalid_argument on an unknown algorithm key. *)
