(** Persistent global configurations of the simulated system and the
    single-step transition relation.

    A configuration is a {e point} of an execution in the paper's sense
    (Section 3): the joint state of all servers, clients and channels,
    plus the failure pattern and the recorded history.  Configurations
    are immutable: branching an execution at a point — the heart of
    every valency argument — is keeping the old value and stepping the
    copy. *)

open Types

type ('ss, 'cs, 'm) t
(** A configuration of a system running an [('ss, 'cs, 'm) algo]. *)

val kind : engine_kind
(** [Pure] — stamped into replay diagnostics. *)

val make : ('ss, 'cs, 'm) algo -> params -> clients:int -> ('ss, 'cs, 'm) t
(** Initial configuration: fresh server and client states, empty
    channels, no failures, empty history.
    @raise Invalid_argument when [clients < 1] or the algorithm rejects
    the parameters. *)

val snapshot : ('ss, 'cs, 'm) t -> ('ss, 'cs, 'm) t
(** A configuration that stays valid across further steps.  The
    identity here (persistence makes every value a snapshot); a deep
    copy in the arena engine.  Engine-generic drivers call this
    wherever they retain a configuration. *)

val reset : ('ss, 'cs, 'm) algo -> ('ss, 'cs, 'm) t -> ('ss, 'cs, 'm) t
(** A fresh initial configuration with the same parameters and client
    count.  The arena engine reinitializes its storage in place;
    here it is just {!make} again.
    @raise Invalid_argument as {!make}. *)

val mark : ('ss, 'cs, 'm) t -> int
val undo_to : ('ss, 'cs, 'm) t -> int -> unit
(** The backtracking hooks of {!Engine_sig.S}: no-ops here, because a
    persistent configuration never needs undoing — the caller keeps the
    old value.  They let one in-place search run on both engines. *)

(** {1 Observation} *)

val params : ('ss, 'cs, 'm) t -> params

val time : ('ss, 'cs, 'm) t -> int
(** Number of steps taken so far; every event carries a distinct time. *)

val history : ('ss, 'cs, 'm) t -> event list
(** Invocation/response events, oldest first. *)

val rev_history : ('ss, 'cs, 'm) t -> event list
(** The history newest first — the engine's native order, exposed so
    callers scanning for a recent event need not pay {!history}'s
    [List.rev] per lookup. *)

val last_response_for : ('ss, 'cs, 'm) t -> client:int -> response option
(** The most recent [Respond] event recorded for [client], scanning
    newest-first (O(distance to that event), typically O(1) right
    after an operation completes). *)

val server_state : ('ss, 'cs, 'm) t -> int -> 'ss
val client_state : ('ss, 'cs, 'm) t -> int -> 'cs
val num_clients : ('ss, 'cs, 'm) t -> int

val is_failed : ('ss, 'cs, 'm) t -> int -> bool
val failed : ('ss, 'cs, 'm) t -> int list

val is_frozen : ('ss, 'cs, 'm) t -> endpoint -> bool

val pending_op : ('ss, 'cs, 'm) t -> int -> (int * op) option
(** The client's outstanding [(op_id, op)], if any. *)

val channel : ('ss, 'cs, 'm) t -> src:endpoint -> dst:endpoint -> 'm list
(** Contents of one channel, front first. *)

val peek_channel : ('ss, 'cs, 'm) t -> src:endpoint -> dst:endpoint -> 'm option
(** Head message of one channel. *)

val iter_channel :
  ('ss, 'cs, 'm) t -> src:endpoint -> dst:endpoint -> ('m -> unit) -> unit
(** Iterate one channel front first, without building the list
    {!channel} would allocate; the inspection paths the reduction
    machinery hits per explored state use this. *)

val channel_length : ('ss, 'cs, 'm) t -> src:endpoint -> dst:endpoint -> int

val channels : ('ss, 'cs, 'm) t -> (endpoint * endpoint * 'm list) list
(** All non-empty channels. *)

(** {1 Fault and adversary control} *)

val fail_server : ('ss, 'cs, 'm) t -> int -> ('ss, 'cs, 'm) t
(** Crash a server: it takes no further steps and receives nothing.
    Failures are permanent.  @raise Invalid_argument on a bad index. *)

val freeze : ('ss, 'cs, 'm) t -> endpoint -> ('ss, 'cs, 'm) t
(** Suspend an endpoint: no channel touching it delivers while frozen.
    Realizes "messages from and to X are delayed indefinitely"
    (Definition 4.3).  Reversible with {!thaw}. *)

val thaw : ('ss, 'cs, 'm) t -> endpoint -> ('ss, 'cs, 'm) t
val freeze_all : ('ss, 'cs, 'm) t -> endpoint list -> ('ss, 'cs, 'm) t

(** {1 Transitions} *)

(** A schedulable action.  [Deliver (src, dst)] hands the head message
    of channel (src, dst) to [dst].  Operation invocations are driven
    externally via {!invoke}. *)
type action = Deliver of endpoint * endpoint

val pp_action : Format.formatter -> action -> unit

val enabled : ('ss, 'cs, 'm) t -> action list
(** All currently enabled actions, in deterministic (channel-key)
    order: non-empty channels whose endpoints are unfrozen and whose
    destination is alive. *)

val enabled_arr : ('ss, 'cs, 'm) t -> action array
(** {!enabled} as a freshly-built array (same deterministic order),
    built without intermediate lists.  The scheduler picks uniformly by
    index from this, keeping each delivery step a single channel-map
    traversal. *)

val enabled_where :
  ('ss, 'cs, 'm) t -> f:(action -> bool) -> action array
(** {!enabled_arr} restricted to actions satisfying [f]; used by the
    adversary schedulers that only deliver allowed messages. *)

val has_enabled : ('ss, 'cs, 'm) t -> bool

val step_deliver :
  ('ss, 'cs, 'm) algo -> ('ss, 'cs, 'm) t -> action -> ('ss, 'cs, 'm) t option
(** Perform one delivery.  [None] when the action is not enabled.  A
    delivery to a client may complete its pending operation, recording
    a [Respond] event.
    @raise Invalid_argument when a no-gossip algorithm emits a
    server-to-server message, or a client responds with no pending
    operation (protocol bugs are made loud). *)

val invoke :
  ('ss, 'cs, 'm) algo -> ('ss, 'cs, 'm) t -> client:int -> op -> int * ('ss, 'cs, 'm) t
(** Invoke an operation; returns its fresh [op_id].  Well-formedness:
    one outstanding operation per client.
    @raise Invalid_argument on a busy client or bad index. *)

val step_deliver_n :
  ?observer:(('ss, 'cs, 'm) t -> unit) ->
  ?stop:(('ss, 'cs, 'm) t -> bool) ->
  ('ss, 'cs, 'm) algo ->
  ('ss, 'cs, 'm) t ->
  rng:Random.State.t ->
  max:int ->
  ('ss, 'cs, 'm) t * int * run_stop
(** Fused scheduler loop: uniformly-random enabled deliveries until
    [stop] holds, quiescence, or [max] steps; returns the final
    configuration, the step count, and why it returned.  [observer]
    sees every post-step configuration.  Semantics and RNG consumption
    are exactly those of the equivalent [step_deliver] loop — this
    exists so the arena engine can run the hot loop without per-step
    action-array allocation.
    @raise Invalid_argument propagated from {!step_deliver} (protocol
    bugs are made loud). *)

(** {1 Storage accounting} *)

val total_storage_bits : ('ss, 'cs, 'm) algo -> ('ss, 'cs, 'm) t -> int
(** Sum of [algo.server_bits] over non-failed servers. *)

val max_storage_bits : ('ss, 'cs, 'm) algo -> ('ss, 'cs, 'm) t -> int

val server_encodings : ('ss, 'cs, 'm) algo -> ('ss, 'cs, 'm) t -> string array
(** Canonical encodings of every server's state (failed ones
    included; census code projects on the subset it cares about). *)

val encode_state : into:Buffer.t -> ('ss, 'cs, 'm) algo -> ('ss, 'cs, 'm) t -> unit
(** Append a canonical, self-delimiting encoding of the configuration's
    dynamic state — server encodings, channel contents (via
    [algo.encode_msg]), client states, failure/freeze pattern,
    outstanding operations — to [into].  Excludes [time] and [history]:
    the model checker ({!Explore}) renumbers and appends the history
    itself, so configurations differing only in absolute step counts
    share a key.  Equal encodings imply behaviourally identical
    configurations; the converse can fail only through [Marshal]ed
    client states whose internal structure differs, which costs dedup
    hits but never soundness. *)
