(** Bounded exhaustive exploration of the execution space — the
    engine's model checker.

    Where {!Driver} samples fair executions with a seeded scheduler,
    this module enumerates {e every} interleaving of message deliveries
    and operation invocations of a small system, deduplicating states
    by 16-byte digests of a canonical encoding (event times renumbered,
    so states differing only in absolute step counts merge).  Terminal
    configurations — all scripts exhausted, no operation pending, no
    delivery enabled — carry the system's complete histories, which the
    caller checks against a consistency condition.

    {!run} is the entry point: one in-place depth-first search core,
    written once over {!Engine_sig.S} and run on either engine,
    optionally fanned out across OCaml 5 domains over a sharded
    seen-set.  On a closed (non-truncated) space the reported counts
    and the sorted terminal/deadlock history sets are identical for
    every domain count and both engines — see docs/MODEL_CHECKING.md
    for the determinism argument and the digest-soundness analysis.
    {!explore} is a sequential callback-style wrapper over the same
    core on the pure engine, kept for callers that need the terminal
    {e configurations} (not just histories). *)

type outcome =
  | Closed  (** the reachable space was exhausted *)
  | Truncated  (** hit [max_states] before the space closed *)
  | Deadlock of Types.event list
      (** a quiescent configuration with an operation pending at an
          unfrozen client — a protocol liveness bug.  Carries the
          renumbered history of the (lexicographically first) stuck
          configuration; the search still explores the rest of the
          space, so [states_explored]/[terminals] remain meaningful.
          An operation pending at a {e frozen} client is an intended
          suspension (the valency adversary), not a deadlock. *)

type stats = {
  states_explored : int;  (** distinct states visited *)
  terminals : int;  (** distinct terminal states reached *)
  truncated : bool;  (** hit [max_states] before the space closed *)
  outcome : outcome;
}

type run_result = {
  stats : stats;
  histories : Types.event list list;
      (** the distinct terminal histories, event times renumbered,
          sorted by {!history_key} — byte-identical across domain
          counts on a closed space *)
  deadlocks : Types.event list list;
      (** the distinct deadlock histories, renumbered, sorted *)
}

val run :
  ?max_states:int ->
  ?domains:int ->
  ?progress:(int -> unit) ->
  ?progress_interval:int ->
  ?reduce:Reduction.t ->
  ?spill_dir:string ->
  ?spill_threshold:int ->
  ?engine:Engine_sig.kind ->
  ('ss, 'cs, 'm) Types.algo ->
  ('ss, 'cs, 'm) Config.t ->
  scripts:(int * Types.op list) list ->
  run_result
(** Enumerate all interleavings.  [scripts] maps clients to the
    operations they will invoke, in order; invocation timing is
    explored like any other action.

    [domains] (default 1) workers share the search: a 256-way sharded
    digest set deduplicates states, and each worker searches depth-first
    on its own cursor (its own arena on the arena engine, the shared
    persistent root on the pure engine).  When a worker is idle, a busy
    one gives it the untried moves of its shallowest open frame, as the
    move path from the root plus that frame's sleep-set state; the
    receiver replays the path on its own cursor.  [progress] is called
    roughly every [progress_interval] states (default 25000) with the
    current state count, from whichever worker crosses the threshold —
    it must be thread-safe when [domains > 1].

    [reduce] (default {!Reduction.none}) switches on DPOR sleep sets
    and/or symmetry reduction.  On a closed space every reduction
    yields exactly the same sorted terminal and deadlock history sets
    as [Reduction.none] (the differential suite enforces this); with
    symmetry, [states_explored] counts orbit representatives instead
    of raw states.  A symmetry request is silently ignored when
    [algo.server_symmetric params] is false (gossip protocols; coded
    protocols at [k >= 2]), so [--reduce all] is safe everywhere.
    With [Reduction.none] the search is byte-identical to the
    pre-reduction explorer — it is the oracle the reductions are
    differentially tested against.

    [spill_dir] enables the out-of-core seen-set: when a shard of the
    digest table outgrows [spill_threshold] (default 100000) resident
    entries, its settled entries move to sorted runs in [spill_dir]
    with Bloom-filtered membership probes.  The directory must exist,
    be writable, and hold no [*.run] files (a partial previous spill
    is refused rather than silently double-counted); run files are
    removed when the search finishes.

    Exploration stops inserting new states once [max_states] (default
    250000) have been visited; [truncated] reports whether that
    happened.  When truncated, the verification is partial but still
    sound for every terminal reached; counts may then differ across
    domain counts (the budget cut-off is racy), so differential
    comparisons should use closing scopes.

    [engine] (default [Arena]) selects the execution engine.  Both
    run the same search and give the same [run_result] on a closed
    space (the differential suites enforce this at 1, 2 and 4
    domains).  [Arena] steps a mutable {!Mconfig} in place and
    backtracks through its undo journal — about twice as fast as
    copying persistent configurations — and requires [config] to be
    initial (time 0, no history, empty channels, nothing pending;
    pre-applied failures and freezes are fine).  [Pure] is the
    reference engine, and the only one that starts from a
    mid-execution configuration.
    @raise Invalid_argument on a script for an unknown client,
    non-positive [domains]/[spill_threshold], an unusable [spill_dir],
    or (arena engine) a non-initial [config]. *)

val explore :
  ?max_states:int ->
  ('ss, 'cs, 'm) Types.algo ->
  ('ss, 'cs, 'm) Config.t ->
  scripts:(int * Types.op list) list ->
  on_terminal:(('ss, 'cs, 'm) Config.t -> unit) ->
  stats
(** Sequential enumeration on the pure engine; [on_terminal] sees each
    distinct terminal configuration once, in discovery order.
    Equivalent to [(run ~engine:Pure ~domains:1 ...).stats] plus the
    callback.  A deadlock is reported through [outcome] (the search
    continues past it), not as an exception.
    @raise Invalid_argument on a script for an unknown client. *)

val explore_check :
  ?max_states:int ->
  ('ss, 'cs, 'm) Types.algo ->
  ('ss, 'cs, 'm) Config.t ->
  scripts:(int * Types.op list) list ->
  check:(Types.event list -> (unit, string) result) ->
  stats * (string * Types.event list) list
(** Explore and check every terminal history; returns the stats and
    the failures (description, offending history).  Inspect
    [stats.outcome] for deadlocks.
    @raise Invalid_argument on a script for an unknown client. *)

val renumber_history : Types.event list -> Types.event list
(** Replace every event's [time] with its index in the list.  Checkers
    only use the relative order of events, which renumbering preserves,
    so histories differing only in absolute step counts compare
    equal. *)

val history_key : Types.event list -> string
(** Canonical, self-delimiting encoding of a history: the sort key of
    {!run_result.histories} and a convenient byte-comparable
    fingerprint for differential tests. *)
