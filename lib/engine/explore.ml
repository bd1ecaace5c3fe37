(** Bounded exhaustive exploration of the execution space.

    The randomized {!Driver} samples fair executions; this module
    instead enumerates {e every} interleaving of message deliveries and
    operation invocations for a small system, deduplicating states so
    the search closes.  It is the engine's model checker: exhaustive
    verification of safety for small scopes complements the sampled
    testing of large ones.

    A search state is a configuration plus the per-client scripts of
    operations not yet invoked.  Enabled moves are every enabled
    delivery and, for every idle client with a remaining operation,
    invoking it.  Terminal states (no moves, nothing pending) yield the
    complete histories of the system; the caller checks each against a
    consistency condition.

    Deduplication keys are 16-byte {!Digest} values of a canonical
    state encoding ([encode_state] plus the remaining scripts and the
    history with event times renumbered — checkers only use the
    relative order of events, so merging states that differ only in
    absolute step counts is sound).  Storing digests instead of the
    full encodings cuts per-state memory from O(state size) to 16
    bytes; a digest collision would silently merge two distinct states,
    but at 10^8 states the odds are below 2^-76 (birthday bound over a
    128-bit hash), far below the odds of a hardware fault.

    There is one search core, {!Search}, written against
    {!Engine_sig.S}: an in-place depth-first search that marks the
    configuration, applies a move, recurses and rolls back with
    [undo_to].  On the arena engine that is the undo journal; on the
    pure engine mark and undo are no-ops, since a persistent value
    never needs undoing.  Several OCaml 5 domains may share the search:
    each owns a cursor (its own {!Mconfig}, or the shared persistent
    root), they share a 256-way sharded seen-set (keyed by the first
    digest byte), and a busy domain hands the untried moves of its
    shallowest open frame to an idle one as a path from the root, which
    the receiver replays on its own cursor.  Because check-and-insert
    on the sharded set is atomic, each reachable state is expanded
    exactly once, so on a closed (non-truncated) space
    [states_explored], the terminal-history set and the deadlock set
    are schedule-independent — identical for every domain count and
    both engines.  See docs/MODEL_CHECKING.md. *)

open Types

type outcome =
  | Closed  (** the reachable space was exhausted *)
  | Truncated  (** hit [max_states] before closing the space *)
  | Deadlock of event list
      (** a quiescent configuration with an operation pending at an
          unfrozen client — a protocol liveness bug; carries the
          (renumbered) history of the stuck configuration *)

type stats = {
  states_explored : int;  (** distinct states visited *)
  terminals : int;  (** distinct terminal states reached *)
  truncated : bool;  (** hit [max_states] before closing the space *)
  outcome : outcome;
}

type run_result = {
  stats : stats;
  histories : event list list;
      (** distinct terminal histories, renumbered, sorted by
          {!history_key} *)
  deadlocks : event list list;
      (** distinct deadlock histories, renumbered, sorted *)
}

(* ---------- canonical encodings ---------- *)

(* Decimal digits straight into the buffer: key construction is the
   per-edge hot path, and [string_of_int] would allocate per field. *)
let add_int b i =
  let rec digits i =
    if i >= 10 then digits (i / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (i mod 10)))
  in
  if i < 0 then Buffer.add_string b (string_of_int i) else digits i;
  Buffer.add_char b ';'

let add_str b s =
  add_int b (String.length s);
  Buffer.add_string b s

let add_op b = function
  | Read -> Buffer.add_char b 'R'
  | Write v ->
      Buffer.add_char b 'W';
      add_str b v

(* [add_event_at b time ev] encodes [ev] as if its time were [time], so
   a history is keyed renumbered without building the renumbered copy. *)
let add_event_at b time = function
  | Invoke { op_id; client; op; time = _ } ->
      Buffer.add_char b 'I';
      add_int b op_id;
      add_int b client;
      add_int b time;
      add_op b op
  | Respond { op_id; client; response; time = _ } -> (
      Buffer.add_char b 'A';
      add_int b op_id;
      add_int b client;
      add_int b time;
      match response with
      | Read_ack v ->
          Buffer.add_char b 'r';
          add_str b v
      | Write_ack -> Buffer.add_char b 'w')

let add_event b ev =
  match ev with
  | Invoke { time; _ } | Respond { time; _ } -> add_event_at b time ev

let renumber_history events =
  List.mapi
    (fun i ev ->
      match ev with
      | Invoke e -> Invoke { e with time = i }
      | Respond e -> Respond { e with time = i })
    events

let history_key events =
  let b = Buffer.create 128 in
  List.iter (add_event b) events;
  Buffer.contents b

(* Scripts and history are client-indexed, so they are invariant under
   server relabeling: the same tail serves the plain and the canonical
   (symmetry-reduced) digests — and both engines, which is why it takes
   the history rather than a configuration. *)
let add_digest_tail scratch history scripts =
  Buffer.add_char scratch '#';
  List.iter
    (fun (client, ops) ->
      add_int scratch client;
      List.iter (add_op scratch) ops;
      Buffer.add_char scratch '|')
    scripts;
  Buffer.add_char scratch '#';
  List.iteri (add_event_at scratch) history

(* ---------- moves ---------- *)

(* moves: invocations first (deterministic order), then deliveries.
   Moves are plain data, not tied to an engine, so a path of them
   replays on any cursor. *)
type move =
  | Invoke_next of int
  | Do of Config.action

(* Move code in the concrete frame (see {!Reduction} for the integer
   encoding sleep sets operate on). *)
let move_code = function
  | Invoke_next c -> Reduction.invoke_code c
  | Do (Config.Deliver (src, dst)) -> Reduction.deliver_code src dst

(* ---------- sharded seen-set ---------- *)

(* 256 shards keyed by the first digest byte: uniform spread (MD5
   bytes are uniform), and with at most a few dozen workers the odds
   of two workers contending on one shard lock at the same instant are
   small.  The shard count is fixed rather than per-domain so the
   partition — hence the final table contents — is independent of the
   domain count. *)
let shard_count = 256

(* Each entry maps a state digest to its stored sleep set (canonical
   frame, [] when DPOR is off).  [watermarks] drive the optional spill
   store: when a shard's table grows past its watermark, settled
   entries (empty sleep — nothing left to re-expand there) are
   compacted to a sorted on-disk run and dropped from RAM. *)
type shard_set = {
  locks : Mutex.t array;
  tables : (string, int list) Hashtbl.t array;
  watermarks : int array;
  spill : Reduction.Spill.t option;
  spill_threshold : int;
}

let shard_create ?spill ?(spill_threshold = max_int) () =
  {
    locks = Array.init shard_count (fun _ -> Mutex.create ());
    tables = Array.init shard_count (fun _ -> Hashtbl.create 512);
    watermarks = Array.make shard_count spill_threshold;
    spill;
    spill_threshold;
  }

(* Atomically insert [key]; true iff it was fresh. *)
let shard_add t key =
  let i = Char.code (String.unsafe_get key 0) in
  Mutex.lock t.locks.(i);
  let fresh = not (Hashtbl.mem t.tables.(i) key) in
  if fresh then Hashtbl.replace t.tables.(i) key [];
  Mutex.unlock t.locks.(i);
  fresh

(* Check-and-insert with sleep sets (Godefroid's state-caching rule):

   - fresh digest: store [sleep], expand the child normally;
   - seen with stored sleep [Zs <= sleep]: everything this arrival
     would explore is asleep in a subtree already covered — prune;
   - seen with [Zs] not included in [sleep]: the state was first
     explored with MORE moves asleep than now.  Store the intersection
     and re-expand exactly the moves [D = Zs \ sleep] that were asleep
     then but awake now ([Again]).  Stored sets strictly shrink, so
     revisits terminate.

   With DPOR off every sleep set is [] and this degenerates to
   [shard_add].  A hit in the spill store is a settled (empty-sleep)
   entry, hence always a prune. *)
type probe_result = Fresh | Dup | Again of int list * int list

let shard_probe t key sleep =
  let i = Char.code (String.unsafe_get key 0) in
  Mutex.lock t.locks.(i);
  let tbl = t.tables.(i) in
  let result =
    match Hashtbl.find_opt tbl key with
    | Some stored ->
        if Reduction.Iset.subset stored sleep then Dup
        else begin
          let inter = Reduction.Iset.inter stored sleep in
          let d = Reduction.Iset.diff stored sleep in
          Hashtbl.replace tbl key inter;
          Again (d, inter)
        end
    | None ->
        let spilled =
          match t.spill with
          | None -> false
          | Some sp -> Reduction.Spill.mem sp ~shard:i key
        in
        if spilled then Dup
        else begin
          Hashtbl.replace tbl key sleep;
          (match t.spill with
          | Some sp when Hashtbl.length tbl >= t.watermarks.(i) ->
              let settled =
                Hashtbl.fold
                  (fun k v acc -> match v with [] -> k :: acc | _ :: _ -> acc)
                  tbl []
              in
              (match List.sort String.compare settled with
              | [] -> ()
              | sorted ->
                  Reduction.Spill.spill sp ~shard:i sorted;
                  List.iter (Hashtbl.remove tbl) sorted);
              (* re-arm relative to what stayed resident, so shards
                 whose entries rarely settle do not rescan on every
                 insert *)
              t.watermarks.(i) <- Hashtbl.length tbl + t.spill_threshold
          | _ -> ());
          Fresh
        end
  in
  Mutex.unlock t.locks.(i);
  result

(* ---------- open frames and the shared pool ---------- *)

(* One open DFS frame: a state being expanded.  [f_rest] is the untried
   tail of its move list — the part a busy domain may give away.
   [f_explored] holds the canonical codes of the moves already expanded
   here, the e_1 .. e_{i-1} of the sleep-set rule.  A move enters it
   before its subtree is searched; only later siblings read it, so this
   is the set the sequential order gives at any point, and a donated
   tail carries exactly that set.  Moves asleep on arrival are never
   added — they are in [f_sleep] already; moves outside [f_only] on a
   re-expansion visit were expanded on the ORIGINAL visit, whose
   subtrees had the [f_only] moves asleep, so they must NOT be put to
   sleep under the re-expanded children. *)
type frame = {
  f_sleep : int list;  (** sleep set in the canonical frame; [] without DPOR *)
  f_canon : int array;  (** canonical server permutation ([[||]] = id) *)
  f_only : int list option;
      (** [Some d]: re-expansion visit — expand exactly the moves in [d]
          (canonical codes), not the full enabled set *)
  mutable f_explored : int list;
  mutable f_rest : move list;
}

(* Work for a domain: the state reached by [t_path] from the root
   (oldest move first) and either its full expansion ([t_frame =
   None], the root task) or the donated tail of one of its frames. *)
type task = { t_path : move list; t_frame : frame option }

type pool = {
  lock : Mutex.t;
  nonempty : Condition.t;
  q : task Queue.t;
  mutable waiters : int;
  pending : int Atomic.t;
      (** tasks created but not yet finished; 0 = search done *)
  hungry : int Atomic.t;
      (** waiting workers minus queued tasks: a busy worker donates
          while it is positive *)
  poisoned : exn option Atomic.t;
      (** first exception raised by any worker; aborts the search *)
}

let pool_create () =
  {
    lock = Mutex.create ();
    nonempty = Condition.create ();
    q = Queue.create ();
    waiters = 0;
    pending = Atomic.make 0;
    hungry = Atomic.make 0;
    poisoned = Atomic.make None;
  }

let pool_push pool task =
  Atomic.incr pool.pending;
  Mutex.lock pool.lock;
  Queue.push task pool.q;
  Atomic.decr pool.hungry;
  if pool.waiters > 0 then Condition.signal pool.nonempty;
  Mutex.unlock pool.lock

(* Blocking take: [None] once the search is complete (pending = 0) or
   poisoned.  Waiters re-check under the lock, and completers /
   poisoners broadcast under the same lock, so no wakeup is lost. *)
let pool_take pool =
  Mutex.lock pool.lock;
  let rec await () =
    if Option.is_some (Atomic.get pool.poisoned) then begin
      Condition.broadcast pool.nonempty;
      Mutex.unlock pool.lock;
      None
    end
    else if not (Queue.is_empty pool.q) then begin
      let t = Queue.pop pool.q in
      Atomic.incr pool.hungry;
      Mutex.unlock pool.lock;
      Some t
    end
    else if Atomic.get pool.pending = 0 then begin
      Condition.broadcast pool.nonempty;
      Mutex.unlock pool.lock;
      None
    end
    else begin
      pool.waiters <- pool.waiters + 1;
      Atomic.incr pool.hungry;
      Condition.wait pool.nonempty pool.lock;
      pool.waiters <- pool.waiters - 1;
      Atomic.decr pool.hungry;
      await ()
    end
  in
  await ()

let pool_task_done pool =
  (* last task out wakes every waiter so they can observe completion *)
  if Atomic.fetch_and_add pool.pending (-1) = 1 then begin
    Mutex.lock pool.lock;
    Condition.broadcast pool.nonempty;
    Mutex.unlock pool.lock
  end

let pool_poison pool e =
  ignore (Atomic.compare_and_set pool.poisoned None (Some e));
  Mutex.lock pool.lock;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.lock

(* Raised inside a worker's search once another worker poisoned the
   pool: unwinds the DFS without re-poisoning. *)
exception Abort

(* Per-depth registers a worker keeps for donation: [frames.(d)] is
   the open frame at depth [d], [path.(d)] the move it is currently
   expanding.  Growable, because search depth is only bounded by the
   scope. *)
let grow arr len dummy =
  if len >= Array.length !arr then begin
    let bigger = Array.make (2 * len) dummy in
    Array.blit !arr 0 bigger 0 (Array.length !arr);
    arr := bigger
  end

let no_frame =
  { f_sleep = []; f_canon = [||]; f_only = None; f_explored = []; f_rest = [] }

(* ---------- the search core ---------- *)

let validate_scripts config scripts =
  List.iter
    (fun (client, _) ->
      if client < 0 || client >= Config.num_clients config then
        invalid_arg "Explore.explore: script for unknown client")
    scripts

module Search (E : Engine_sig.S) = struct
  module Canon = Reduction.Canon (E)

  (* The dedup key of a search state, as a 16-byte digest, plus the
     canonical server permutation.  Under symmetry reduction the state
     section is the orbit representative's encoding, so every
     configuration in one orbit (with equal history) collapses to one
     digest; the returned permutation converts between the concrete
     frame of this configuration and the canonical frame sleep sets
     are stored in.  [[||]] stands for the identity.  [scratch] is a
     per-worker reusable buffer: key construction is the per-edge hot
     path, so it must not allocate a fresh buffer every call. *)
  let digest_and_canon scratch ~symmetric algo c scripts =
    Buffer.clear scratch;
    let perm =
      if symmetric then begin
        let perm = Canon.canonical_perm algo c in
        Canon.encode_canonical ~into:scratch ~perm algo c;
        perm
      end
      else begin
        E.encode_state ~into:scratch algo c;
        [||]
      end
    in
    add_digest_tail scratch (E.history c) scripts;
    (Digest.string (Buffer.contents scratch), perm)

  let moves c scripts =
    let invokes =
      List.filter_map
        (fun (client, ops) ->
          match (ops, E.pending_op c client) with
          | _ :: _, None -> Some (Invoke_next client)
          | _ -> None)
        scripts
    in
    invokes @ List.map (fun a -> Do a) (E.enabled c)

  (* The successor configuration (the argument itself on the arena
     engine, mutated in place) and the remaining scripts; [None] when
     the move is not applicable (nothing was mutated). *)
  let apply algo c scripts = function
    | Invoke_next client ->
        let ops =
          match
            List.find_map
              (fun (c, ops) -> if Int.equal c client then Some ops else None)
              scripts
          with
          | Some ops -> ops
          | None -> invalid_arg "Explore.apply: unknown client"
        in
        let op, rest =
          match ops with o :: r -> (o, r) | [] -> assert false
        in
        let _, c = E.invoke algo c ~client op in
        let scripts =
          List.map
            (fun (c, o) -> if Int.equal c client then (c, rest) else (c, o))
            scripts
        in
        Some (c, scripts)
    | Do action -> (
        match E.step_deliver algo c action with
        | Some c -> Some (c, scripts)
        | None -> None)

  (* [cursor ()] is called once per domain, before any is spawned; each
     returns that domain's root configuration.  [on_terminal] runs user
     code that need not be thread-safe, so only {!explore} passes it,
     at one domain; the internal collection of terminal/deadlock
     histories is always on. *)
  let search ?(max_states = 250_000) ?(domains = 1) ?progress
      ?(progress_interval = 25_000) ?on_terminal ?(reduce = Reduction.none)
      ?spill_dir ?(spill_threshold = 100_000) ~cursor algo ~scripts =
    if domains < 1 then invalid_arg "Explore.search: domains must be >= 1";
    if spill_threshold < 1 then
      invalid_arg "Explore.search: spill_threshold must be >= 1";
    let cursors = Array.init domains (fun _ -> cursor ()) in
    (* symmetry applies only where the algorithm declares every
       transition permutation-equivariant at these parameters; elsewhere
       the request silently degrades (documented in the .mli) so one
       [--reduce all] flag serves every algorithm *)
    let symmetric =
      reduce.Reduction.sym && algo.server_symmetric (E.params cursors.(0))
    in
    let dpor = reduce.Reduction.dpor in
    let sharing = domains > 1 in
    let spill =
      match spill_dir with
      | None -> None
      | Some dir -> (
          match Reduction.Spill.create ~dir with
          | Ok sp -> Some sp
          | Error msg -> invalid_arg ("Explore.search: " ^ msg))
    in
    let seen = shard_create ?spill ~spill_threshold () in
    let term_seen = shard_create () in
    let dead_seen = shard_create () in
    let states = Atomic.make 0 in
    let truncated = Atomic.make false in
    let next_report = Atomic.make progress_interval in
    let pool = pool_create () in
    let terminal_acc = Array.make domains [] in
    let deadlock_acc = Array.make domains [] in
    let count_state () =
      Atomic.incr states;
      match progress with
      | None -> ()
      | Some report ->
          let s = Atomic.get states in
          let threshold = Atomic.get next_report in
          if
            s >= threshold
            && Atomic.compare_and_set next_report threshold
                 (threshold + progress_interval)
          then report s
    in
    let root_digest, root_canon =
      digest_and_canon (Buffer.create 1024) ~symmetric algo cursors.(0) scripts
    in
    let worker wid () =
      let root = cursors.(wid) in
      let root_mark = E.mark root in
      let scratch = Buffer.create 1024 in
      let frames = ref (Array.make 64 no_frame) in
      let path = ref (Array.make 64 (Invoke_next 0)) in
      (* open frames are [frames.(base) .. frames.(top - 1)]; below
         [base] lies the path of the task being searched *)
      let base = ref 0 and top = ref 0 in
      (* give the untried tail of the shallowest open frame to the
         pool: the largest remaining subtrees, so a hand-off moves real
         work, not leaves *)
      let donate () =
        let rec shallowest d =
          if d >= !top then None
          else
            match !frames.(d).f_rest with
            | [] -> shallowest (d + 1)
            | _ :: _ -> Some d
        in
        match shallowest !base with
        | None -> ()
        | Some d ->
            let fr = !frames.(d) in
            let tail = fr.f_rest in
            fr.f_rest <- [];
            pool_push pool
              {
                t_path = List.init d (fun i -> !path.(i));
                t_frame = Some { fr with f_rest = tail };
              }
      in
      (* classify a quiescent state *)
      let quiescent c =
        (* a pending operation at a frozen client is an intended
           suspension (the valency adversary), not a deadlock *)
        let nc = E.num_clients c in
        let rec idle i =
          i >= nc
          || (Option.is_none (E.pending_op c i) || E.is_frozen c (Types.Client i))
             && idle (i + 1)
        in
        let hist = renumber_history (E.history c) in
        let key = history_key hist in
        if idle 0 then begin
          if shard_add term_seen (Digest.string key) then begin
            terminal_acc.(wid) <- (key, hist) :: terminal_acc.(wid);
            match on_terminal with None -> () | Some f -> f c
          end
        end
        (* a non-idle quiescent state is a deadlock: record it *)
        else if shard_add dead_seen (Digest.string key) then
          deadlock_acc.(wid) <- (key, hist) :: deadlock_acc.(wid)
      in
      (* [visit]: expand the state [c] reached at [depth]; dedup happens
         at generation, so every inserted state is visited exactly once
         (plus sleep-set re-expansion visits restricted by [only]).
         Recursion depth is the DFS path length — bounded by the
         scripts' total op count plus the messages they generate, a few
         hundred at explorable scopes. *)
      let rec visit c scripts depth ~sleep ~canon ~only =
        match moves c scripts with
        | [] -> quiescent c
        | ms ->
            expand c scripts depth
              {
                f_sleep = sleep;
                f_canon = canon;
                f_only = only;
                f_explored = [];
                f_rest = ms;
              }
      and expand c scripts depth fr =
        grow frames depth no_frame;
        grow path depth (Invoke_next 0);
        !frames.(depth) <- fr;
        top := depth + 1;
        (* concrete moves -> canonical codes through this state's
           canonical permutation; independence is relabel-invariant, so
           sleep-set filtering runs directly on canonical codes *)
        let self_code =
          if symmetric then
            let r = fr.f_canon in
            fun m -> Reduction.relabel_code (fun s -> r.(s)) (move_code m)
          else move_code
        in
        let inv_self =
          if symmetric then Reduction.inverse_perm fr.f_canon else [||]
        in
        let step m =
          let cm = if dpor then self_code m else 0 in
          let skip =
            dpor
            && (Reduction.Iset.mem cm fr.f_sleep
               ||
               match fr.f_only with
               | Some d -> not (Reduction.Iset.mem cm d)
               | None -> false)
          in
          if not skip then begin
            let m0 = E.mark c in
            (match apply algo c scripts m with
            | None -> ()
            | Some (c', scripts') ->
                if Atomic.get states >= max_states then Atomic.set truncated true
                else begin
                  (* the child's sleep set in this state's frame: every
                     independent member of Z U {e_1..e_{i-1}} *)
                  let sleep_self =
                    if dpor then begin
                      let s =
                        List.filter
                          (fun o -> Reduction.independent o cm)
                          (Reduction.Iset.union fr.f_sleep fr.f_explored)
                      in
                      fr.f_explored <- Reduction.Iset.add cm fr.f_explored;
                      s
                    end
                    else []
                  in
                  let d, canon' =
                    digest_and_canon scratch ~symmetric algo c' scripts'
                  in
                  (* convert to the child's canonical frame: a code in
                     this state's frame names a concrete move through
                     [inv_self]; the child names it through [canon'] *)
                  let sleep_child =
                    if dpor && symmetric then
                      Reduction.Iset.of_list
                        (List.map
                           (Reduction.relabel_code (fun s ->
                                canon'.(inv_self.(s))))
                           sleep_self)
                    else sleep_self
                  in
                  !path.(depth) <- m;
                  match shard_probe seen d sleep_child with
                  | Fresh ->
                      count_state ();
                      visit c' scripts' (depth + 1) ~sleep:sleep_child
                        ~canon:canon' ~only:None
                  | Dup -> ()
                  | Again (d_only, inter) ->
                      (* revisit with fewer moves asleep: re-expand
                         exactly the difference (not a new state —
                         [states_explored] counts first visits) *)
                      visit c' scripts' (depth + 1) ~sleep:inter ~canon:canon'
                        ~only:(Some d_only)
                end);
            E.undo_to c m0
          end
        in
        let rec loop () =
          match fr.f_rest with
          | [] -> ()
          | m :: rest ->
              fr.f_rest <- rest;
              step m;
              if sharing then begin
                if Option.is_some (Atomic.get pool.poisoned) then raise Abort;
                if Atomic.get pool.hungry > 0 then donate ()
              end;
              loop ()
        in
        loop ();
        top := depth
      in
      (* replay the task's path on this domain's cursor, search from
         there, and roll the cursor back to the root *)
      let run_task task =
        let c, scripts, depth =
          List.fold_left
            (fun (c, scripts, depth) m ->
              grow path depth (Invoke_next 0);
              !path.(depth) <- m;
              match apply algo c scripts m with
              | Some (c', scripts') -> (c', scripts', depth + 1)
              | None -> invalid_arg "Explore.search: a donated path must replay")
            (root, scripts, 0) task.t_path
        in
        base := depth;
        (match task.t_frame with
        | None -> visit c scripts depth ~sleep:[] ~canon:root_canon ~only:None
        | Some fr -> expand c scripts depth fr);
        E.undo_to root root_mark
      in
      let rec loop () =
        match pool_take pool with
        | None -> ()
        | Some task -> (
            match run_task task with
            | () ->
                pool_task_done pool;
                loop ()
            | exception Abort -> pool_task_done pool
            | exception e ->
                pool_poison pool e;
                pool_task_done pool)
      in
      loop ()
    in
    (* seed: the root is state #1 *)
    ignore (shard_probe seen root_digest [] : probe_result);
    count_state ();
    pool_push pool { t_path = []; t_frame = None };
    Fun.protect
      ~finally:(fun () ->
        match spill with Some sp -> Reduction.Spill.close sp | None -> ())
      (fun () ->
        let spawned =
          List.init (domains - 1) (fun i -> Domain.spawn (worker (i + 1)))
        in
        worker 0 ();
        List.iter Domain.join spawned);
    (match Atomic.get pool.poisoned with Some e -> raise e | None -> ());
    let collect acc =
      Array.to_list acc |> List.concat
      |> List.sort (fun (ka, _) (kb, _) -> String.compare ka kb)
      |> List.map snd
    in
    let histories = collect terminal_acc in
    let deadlocks = collect deadlock_acc in
    let outcome =
      match deadlocks with
      | d :: _ -> Deadlock d
      | [] -> if Atomic.get truncated then Truncated else Closed
    in
    {
      stats =
        {
          states_explored = Atomic.get states;
          terminals = List.length histories;
          truncated = Atomic.get truncated;
          outcome;
        };
      histories;
      deadlocks;
    }
end

module Pure_search = Search (Config)
module Arena_search = Search (Mconfig)

(* The arena search starts each domain from its own [Mconfig.make]: a
   general pure-to-arena conversion would have to rebuild arbitrary
   mid-execution states (channels hold algorithm-typed messages every
   engine represents differently), and no explorer caller needs one —
   they all start from an initial configuration, at most with faults
   pre-applied (the valency adversary freezes endpoints; pure fault
   operations do not advance time).  So exactly that shape is accepted
   and anything else refused loudly. *)
let arena_of_initial algo config =
  let prm = Config.params config in
  let nc = Config.num_clients config in
  let rec no_pending j =
    j >= nc || (Option.is_none (Config.pending_op config j) && no_pending (j + 1))
  in
  if
    Config.time config <> 0
    || Config.history config <> []
    || Config.channels config <> []
    || not (no_pending 0)
  then
    invalid_arg
      "Explore.run: the arena engine explores from an initial configuration \
       (time 0, no history, empty channels, no pending operation)";
  let a = Mconfig.make algo prm ~clients:nc in
  List.iter (fun i -> ignore (Mconfig.fail_server a i)) (Config.failed config);
  for i = 0 to prm.n - 1 do
    if Config.is_frozen config (Server i) then ignore (Mconfig.freeze a (Server i))
  done;
  for j = 0 to nc - 1 do
    if Config.is_frozen config (Client j) then ignore (Mconfig.freeze a (Client j))
  done;
  Mconfig.set_journal a true;
  a

(** [run algo config ~scripts] — enumerate all interleavings, possibly
    across several domains, and return the merged, deterministically
    sorted terminal and deadlock histories.  See the .mli. *)
let run ?max_states ?domains ?progress ?progress_interval ?reduce ?spill_dir
    ?spill_threshold ?(engine = Engine_sig.Arena) algo config ~scripts =
  validate_scripts config scripts;
  match engine with
  | Engine_sig.Pure ->
      Pure_search.search ?max_states ?domains ?progress ?progress_interval ?reduce
        ?spill_dir ?spill_threshold
        ~cursor:(fun () -> config)
        algo ~scripts
  | Engine_sig.Arena ->
      Arena_search.search ?max_states ?domains ?progress ?progress_interval ?reduce
        ?spill_dir ?spill_threshold
        ~cursor:(fun () -> arena_of_initial algo config)
        algo ~scripts

(** [explore algo config ~scripts ~on_terminal] — sequential
    enumeration on the pure engine; [on_terminal] receives every
    distinct terminal configuration in discovery order. *)
let explore ?max_states algo config ~scripts ~on_terminal =
  validate_scripts config scripts;
  (Pure_search.search ?max_states ~on_terminal
     ~cursor:(fun () -> config)
     algo ~scripts)
    .stats

(** Convenience wrapper: explore and check every terminal history with
    [check]; returns the stats and the list of failures (the verdict
    description plus the offending history). *)
let explore_check ?max_states algo config ~scripts
    ~check:(check : event list -> (unit, string) result) =
  let failures = ref [] in
  let stats =
    explore ?max_states algo config ~scripts ~on_terminal:(fun c ->
        match check (Config.history c) with
        | Ok () -> ()
        | Error why -> failures := (why, Config.history c) :: !failures)
  in
  (stats, List.rev !failures)
