(** The engine signature: the observable configuration API shared by
    the pure reference engine ({!Config}) and the mutable arena engine
    ({!Mconfig}).

    Everything layered on top of a configuration — {!Driver},
    [Workload], the fault injector, the hammer campaigns — is written
    once against this signature, so the algorithm transition records in
    [lib/algorithms] run unchanged on both engines and every driver
    exists in a pure and an arena instantiation.

    The contract between the two implementations is {e byte-identical
    traces}: started from equal initial configurations and driven with
    the same decisions (same RNG stream, same invocations, same fault
    schedule), both engines produce equal histories, equal
    [encode_state] bytes, equal enabled sets in the same deterministic
    order, and equal storage counters at every step.  The differential
    suite [test/test_engine_diff.ml] checks this for all algorithms;
    the pure engine is the oracle, the arena engine the optimized
    implementation (see docs/ENGINE.md). *)

open Types

(** Which engine a driver should run on.  The pure engine stays the
    default for the valency probes (which branch executions and need
    persistence); the arena engine is the default for the forward-only
    paths (hammer, workload) and the model checker. *)
type kind = Types.engine_kind = Pure | Arena

let kind_to_string = Types.engine_kind_to_string

module type S = sig
  type ('ss, 'cs, 'm) t

  val kind : kind
  (** Which engine this is — stamped into replay diagnostics so a
      failure message names the engine that produced it. *)

  val make : ('ss, 'cs, 'm) algo -> params -> clients:int -> ('ss, 'cs, 'm) t
  val snapshot : ('ss, 'cs, 'm) t -> ('ss, 'cs, 'm) t
  val reset : ('ss, 'cs, 'm) algo -> ('ss, 'cs, 'm) t -> ('ss, 'cs, 'm) t

  (** {1 Backtracking}

      [mark] names the current point of an execution and [undo_to]
      rolls the configuration back to it, so a search can step in
      place and backtrack.  The arena engine uses its undo journal
      (which must be on); on the pure engine both are no-ops, since a
      persistent value never needs undoing. *)

  val mark : ('ss, 'cs, 'm) t -> int
  val undo_to : ('ss, 'cs, 'm) t -> int -> unit

  (** {1 Observation} *)

  val params : ('ss, 'cs, 'm) t -> params
  val time : ('ss, 'cs, 'm) t -> int
  val history : ('ss, 'cs, 'm) t -> event list
  val rev_history : ('ss, 'cs, 'm) t -> event list
  val last_response_for : ('ss, 'cs, 'm) t -> client:int -> response option
  val server_state : ('ss, 'cs, 'm) t -> int -> 'ss
  val client_state : ('ss, 'cs, 'm) t -> int -> 'cs
  val num_clients : ('ss, 'cs, 'm) t -> int
  val is_failed : ('ss, 'cs, 'm) t -> int -> bool
  val failed : ('ss, 'cs, 'm) t -> int list
  val is_frozen : ('ss, 'cs, 'm) t -> endpoint -> bool
  val pending_op : ('ss, 'cs, 'm) t -> int -> (int * op) option
  val channel : ('ss, 'cs, 'm) t -> src:endpoint -> dst:endpoint -> 'm list

  val peek_channel :
    ('ss, 'cs, 'm) t -> src:endpoint -> dst:endpoint -> 'm option

  val iter_channel :
    ('ss, 'cs, 'm) t -> src:endpoint -> dst:endpoint -> ('m -> unit) -> unit

  val channel_length : ('ss, 'cs, 'm) t -> src:endpoint -> dst:endpoint -> int
  val channels : ('ss, 'cs, 'm) t -> (endpoint * endpoint * 'm list) list

  (** {1 Fault and adversary control} *)

  val fail_server : ('ss, 'cs, 'm) t -> int -> ('ss, 'cs, 'm) t
  val freeze : ('ss, 'cs, 'm) t -> endpoint -> ('ss, 'cs, 'm) t
  val thaw : ('ss, 'cs, 'm) t -> endpoint -> ('ss, 'cs, 'm) t
  val freeze_all : ('ss, 'cs, 'm) t -> endpoint list -> ('ss, 'cs, 'm) t

  (** {1 Transitions}

      The action vocabulary is shared with the pure engine so pattern
      matches on [Config.Deliver] work against any engine. *)

  val enabled : ('ss, 'cs, 'm) t -> Config.action list
  val enabled_arr : ('ss, 'cs, 'm) t -> Config.action array

  val enabled_where :
    ('ss, 'cs, 'm) t -> f:(Config.action -> bool) -> Config.action array

  val has_enabled : ('ss, 'cs, 'm) t -> bool

  val step_deliver :
    ('ss, 'cs, 'm) algo ->
    ('ss, 'cs, 'm) t ->
    Config.action ->
    ('ss, 'cs, 'm) t option

  val step_deliver_n :
    ?observer:(('ss, 'cs, 'm) t -> unit) ->
    ?stop:(('ss, 'cs, 'm) t -> bool) ->
    ('ss, 'cs, 'm) algo ->
    ('ss, 'cs, 'm) t ->
    rng:Random.State.t ->
    max:int ->
    ('ss, 'cs, 'm) t * int * run_stop

  val invoke :
    ('ss, 'cs, 'm) algo ->
    ('ss, 'cs, 'm) t ->
    client:int ->
    op ->
    int * ('ss, 'cs, 'm) t

  (** {1 Storage accounting and canonical encoding} *)

  val total_storage_bits : ('ss, 'cs, 'm) algo -> ('ss, 'cs, 'm) t -> int
  val max_storage_bits : ('ss, 'cs, 'm) algo -> ('ss, 'cs, 'm) t -> int
  val server_encodings : ('ss, 'cs, 'm) algo -> ('ss, 'cs, 'm) t -> string array

  val encode_state :
    into:Buffer.t -> ('ss, 'cs, 'm) algo -> ('ss, 'cs, 'm) t -> unit
end
