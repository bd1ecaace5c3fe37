(** Persistent global configurations of the simulated system and the
    single-step transition relation.

    A configuration is a point of an execution in the sense of the
    paper: the joint state of all servers, clients, and channels, plus
    the failure pattern and the recorded history.  Configurations are
    immutable, so extending an execution from a point (the valency
    probes of Sections 4-6) is a matter of keeping the old value. *)

open Types

module Chan_key = struct
  type t = endpoint * endpoint

  let compare ((a1, a2) : t) ((b1, b2) : t) =
    match compare_endpoint a1 b1 with
    | 0 -> compare_endpoint a2 b2
    | c -> c
end

module Chan_map = Map.Make (Chan_key)
module Int_set = Set.Make (Int)

module Endpoint_set = Set.Make (struct
  type t = endpoint

  let compare = compare_endpoint
end)

type ('ss, 'cs, 'm) t = {
  params : params;
  servers : 'ss array;  (** immutable by convention: always copied on update *)
  clients : 'cs array;
  chans : 'm Fqueue.t Chan_map.t;  (** absent key = empty channel *)
  failed : Int_set.t;  (** crashed servers *)
  frozen : Endpoint_set.t;
      (** endpoints whose channels (in either direction) are suspended;
          realizes "messages from and to X are delayed indefinitely" *)
  time : int;  (** number of steps taken so far *)
  history : event list;  (** reversed; newest first *)
  pending : (int * op) option array;  (** per-client outstanding (op_id, op) *)
  next_op_id : int;
}

let kind = Pure

let make algo params ~clients:nc =
  if nc < 1 then invalid_arg "Config.make: need at least one client";
  {
    params;
    servers = Array.init params.n (fun i -> algo.init_server params i);
    clients = Array.init nc (fun i -> algo.init_client params i);
    chans = Chan_map.empty;
    failed = Int_set.empty;
    frozen = Endpoint_set.empty;
    time = 0;
    history = [];
    pending = Array.make nc None;
    next_op_id = 0;
  }

(* Persistent configurations are their own snapshots: keeping the old
   value is free.  The mutable arena engine ([Mconfig]) deep-copies
   here; drivers written against the engine signature call [snapshot]
   wherever they intend to retain a configuration across steps. *)
let snapshot c = c

let reset algo c = make algo c.params ~clients:(Array.length c.clients)

(* Backtracking is free too: the caller still holds the value it would
   roll back to, so a mark carries nothing and undo does nothing. *)
let mark _ = 0
let undo_to _ _ = ()

let params c = c.params
let time c = c.time
let history c = List.rev c.history
let rev_history c = c.history

(* Newest-first scan of the raw (reversed) history: the response we
   want is almost always the most recent event, so this is O(1) in
   practice where [List.rev (history c)] re-reversed the whole list —
   O(h) per lookup, O(h^2) across a workload. *)
let last_response_for c ~client =
  let rec find = function
    | Respond { client = cl; response; _ } :: _ when equal_client cl client ->
        Some response
    | _ :: rest -> find rest
    | [] -> None
  in
  find c.history
let server_state c i = c.servers.(i)
let client_state c i = c.clients.(i)
let num_clients c = Array.length c.clients
let is_failed c i = Int_set.mem i c.failed
let failed c = Int_set.elements c.failed
let is_frozen c e = Endpoint_set.mem e c.frozen
let pending_op c i = c.pending.(i)

let fail_server c i =
  if i < 0 || i >= c.params.n then invalid_arg "Config.fail_server: bad index";
  { c with failed = Int_set.add i c.failed }

let freeze c e = { c with frozen = Endpoint_set.add e c.frozen }
let thaw c e = { c with frozen = Endpoint_set.remove e c.frozen }

let freeze_all c es = List.fold_left freeze c es

let channel c ~src ~dst =
  match Chan_map.find_opt (src, dst) c.chans with
  | Some q -> Fqueue.to_list q
  | None -> []

let peek_channel c ~src ~dst =
  match Chan_map.find_opt (src, dst) c.chans with
  | Some q -> Fqueue.peek q
  | None -> None

let iter_channel c ~src ~dst f =
  match Chan_map.find_opt (src, dst) c.chans with
  | Some q -> Fqueue.iter f q
  | None -> ()

let channel_length c ~src ~dst =
  match Chan_map.find_opt (src, dst) c.chans with
  | Some q -> Fqueue.length q
  | None -> 0

let channels c =
  Chan_map.fold
    (fun (src, dst) q acc ->
      if Fqueue.is_empty q then acc else (src, dst, Fqueue.to_list q) :: acc)
    c.chans []

(* Enqueue envelopes emitted by [src].  Messages to failed servers are
   still enqueued (channels are reliable); they are simply never
   delivered.  The no-gossip discipline of Theorem 4.1 is enforced
   here: a gossip-free algorithm emitting a server-to-server message is
   a protocol bug we want to fail loudly on. *)
let enqueue algo c ~src envelopes =
  let chans =
    List.fold_left
      (fun chans { dst; payload } ->
        (match (src, dst) with
        | Server _, Server _ when not algo.uses_gossip ->
            invalid_arg
              (Printf.sprintf
                 "Config.enqueue: algorithm %s declares no gossip but sent a \
                  server-to-server message"
                 algo.name)
        | _ -> ());
        let key = (src, dst) in
        let q =
          match Chan_map.find_opt key chans with
          | Some q -> q
          | None -> Fqueue.empty
        in
        Chan_map.add key (Fqueue.push payload q) chans)
      c.chans envelopes
  in
  { c with chans }

(** The actions the scheduler can pick from.  Invocations are driven
    externally (by {!Driver}), not by the scheduler. *)
type action = Deliver of endpoint * endpoint

let pp_action fmt (Deliver (src, dst)) =
  Format.fprintf fmt "deliver %a->%a" pp_endpoint src pp_endpoint dst

let endpoint_alive c = function
  | Server i -> not (Int_set.mem i c.failed)
  | Client _ -> true

let deliverable c ~src ~dst q =
  (not (Fqueue.is_empty q))
  && endpoint_alive c dst
  && (not (is_frozen c src))
  && not (is_frozen c dst)

(** All enabled actions, in a deterministic order (channel-key order). *)
let enabled c =
  Chan_map.fold
    (fun (src, dst) q acc ->
      if deliverable c ~src ~dst q then Deliver (src, dst) :: acc else acc)
    c.chans []
  |> List.rev

(** Enabled actions satisfying [f], as an array in channel-key order.
    One channel-map traversal collecting a reversed list (and its
    length), then one cheap list walk filling the array back-to-front:
    this is what the scheduler's uniform pick indexes every delivery
    step, so it must not pay [List.nth]/[List.length] rescans. *)
let enabled_where c ~f =
  let rev, n =
    Chan_map.fold
      (fun (src, dst) q ((acc, n) as skip) ->
        if deliverable c ~src ~dst q then
          let act = Deliver (src, dst) in
          if f act then (act :: acc, n + 1) else skip
        else skip)
      c.chans ([], 0)
  in
  match rev with
  | [] -> [||]
  | hd :: _ ->
      let arr = Array.make n hd in
      let i = ref (n - 1) in
      List.iter
        (fun act ->
          arr.(!i) <- act;
          decr i)
        rev;
      arr

let enabled_arr c = enabled_where c ~f:(fun _ -> true)

let has_enabled c =
  Chan_map.exists (fun (src, dst) q -> deliverable c ~src ~dst q) c.chans

(* Pop the head of channel (src,dst); caller must know it is nonempty. *)
let pop_channel c ~src ~dst =
  match Chan_map.find_opt (src, dst) c.chans with
  | None -> None
  | Some q -> (
      match Fqueue.pop q with
      | None -> None
      | Some (m, q') ->
          let chans =
            if Fqueue.is_empty q' then Chan_map.remove (src, dst) c.chans
            else Chan_map.add (src, dst) q' c.chans
          in
          Some (m, { c with chans }))

let record c ev = { c with history = ev :: c.history }

(** Deliver the head message of channel (src, dst).  Returns [None] if
    the action is not enabled.  A delivery to a client may complete the
    client's pending operation, in which case a [Respond] event is
    recorded. *)
let step_deliver algo c (Deliver (src, dst)) =
  match Chan_map.find_opt (src, dst) c.chans with
  | None -> None
  | Some q when not (deliverable c ~src ~dst q) -> None
  | Some _ -> (
      match pop_channel c ~src ~dst with
      | None -> None
      | Some (m, c) -> (
          let c = { c with time = c.time + 1 } in
          match dst with
          | Server i ->
              let ss, out =
                algo.on_server_msg c.params ~me:i c.servers.(i) ~src m
              in
              let servers = Array.copy c.servers in
              servers.(i) <- ss;
              Some (enqueue algo { c with servers } ~src:dst out)
          | Client i ->
              let cs, out, resp =
                algo.on_client_msg c.params ~me:i c.clients.(i) ~src m
              in
              let clients = Array.copy c.clients in
              clients.(i) <- cs;
              let c = { c with clients } in
              let c =
                match (resp, c.pending.(i)) with
                | None, _ -> c
                | Some _, None ->
                    invalid_arg
                      (Printf.sprintf
                         "Config.step: client %d responded with no pending op" i)
                | Some response, Some (op_id, _) ->
                    let pending = Array.copy c.pending in
                    pending.(i) <- None;
                    record
                      { c with pending }
                      (Respond { op_id; client = i; response; time = c.time })
              in
              Some (enqueue algo c ~src:dst out)))

(** Invoke operation [op] at client [i].  Well-formedness: at most one
    outstanding operation per client. *)
let invoke algo c ~client:i op =
  if i < 0 || i >= Array.length c.clients then
    invalid_arg "Config.invoke: bad client index";
  (match c.pending.(i) with
  | Some _ ->
      invalid_arg
        (Printf.sprintf "Config.invoke: client %d already has a pending op" i)
  | None -> ());
  let op_id = c.next_op_id in
  let c = { c with time = c.time + 1; next_op_id = op_id + 1 } in
  let cs, out = algo.on_invoke c.params ~me:i c.clients.(i) op in
  let clients = Array.copy c.clients in
  clients.(i) <- cs;
  let pending = Array.copy c.pending in
  pending.(i) <- Some (op_id, op);
  let c = record { c with clients; pending } (Invoke { op_id; client = i; op; time = c.time }) in
  (op_id, enqueue algo c ~src:(Client i) out)

(* Fused delivery loop: pick uniformly among enabled actions, deliver,
   repeat — the exact per-step semantics of [Driver.run], moved behind
   the engine signature so the arena engine can run it without
   rebuilding an action array per step.  RNG consumption is one
   [Random.State.int] per step with a non-empty enabled set, matching
   the one-step-at-a-time loop bit for bit. *)
let step_deliver_n ?observer ?stop algo c ~rng ~max =
  let stopped c = match stop with Some f -> f c | None -> false in
  let rec loop c steps =
    if stopped c then (c, steps, Run_stopped)
    else if steps >= max then (c, steps, Run_limit)
    else
      match enabled_arr c with
      | [||] -> (c, steps, Run_quiescent)
      | acts -> (
          let act = acts.(Random.State.int rng (Array.length acts)) in
          match step_deliver algo c act with
          | None -> loop c (steps + 1) (* lost a race with freezing; retry *)
          | Some c' ->
              (match observer with Some f -> f c' | None -> ());
              loop c' (steps + 1))
  in
  loop c 0

(** Total storage cost of the configuration under the algorithm's
    natural encoding, in bits, summed over non-failed servers. *)
let total_storage_bits algo c =
  let acc = ref 0 in
  Array.iteri
    (fun i ss ->
      if not (Int_set.mem i c.failed) then
        acc := !acc + algo.server_bits c.params ss)
    c.servers;
  !acc

let max_storage_bits algo c =
  let acc = ref 0 in
  Array.iteri
    (fun i ss ->
      if not (Int_set.mem i c.failed) then
        acc := max !acc (algo.server_bits c.params ss))
    c.servers;
  !acc

(** Canonical serializations of all server states (failed servers
    excluded are still included, marked; the census machinery decides
    which subset to project on). *)
let server_encodings algo c = Array.map algo.encode_server c.servers

(* Canonical, self-delimiting encoding of the dynamic state, appended
   to [into].  This is the model checker's dedup key material: two
   configurations with equal encodings are behaviourally identical
   (same servers, channels, client states, failure/freeze pattern and
   outstanding operations).  [time] and [history] are deliberately
   excluded — the explorer renumbers and appends the history itself,
   and merging states that differ only in absolute step counts is the
   point of the canonicalization.  Client states have no
   algorithm-provided encoder, so they go through [Marshal]; equal
   values with different internal structure may fail to merge, which
   costs exploration time but never soundness. *)
let encode_state ~into:b algo c =
  let add_int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ';'
  in
  let add_str s =
    add_int (String.length s);
    Buffer.add_string b s
  in
  let add_endpoint = function
    | Server i ->
        Buffer.add_char b 's';
        add_int i
    | Client i ->
        Buffer.add_char b 'c';
        add_int i
  in
  Buffer.add_char b 'S';
  Array.iter (fun ss -> add_str (algo.encode_server ss)) c.servers;
  Buffer.add_char b 'C';
  (* SA5: repr-dependence is exactly the soundness trade argued above —
     split merges cost time, never correctness (* sa: allow repr-dependent *) *)
  Array.iter (fun cs -> add_str (Marshal.to_string cs [])) c.clients;
  Buffer.add_char b 'M';
  Chan_map.iter
    (fun (src, dst) q ->
      if not (Fqueue.is_empty q) then begin
        add_endpoint src;
        add_endpoint dst;
        Fqueue.fold (fun () m -> add_str (algo.encode_msg m)) () q;
        Buffer.add_char b '|'
      end)
    c.chans;
  Buffer.add_char b 'F';
  Int_set.iter add_int c.failed;
  Buffer.add_char b 'Z';
  Endpoint_set.iter add_endpoint c.frozen;
  Buffer.add_char b 'P';
  Array.iter
    (fun p ->
      match p with
      | None -> Buffer.add_char b '-'
      | Some (op_id, op) -> (
          add_int op_id;
          match op with
          | Read -> Buffer.add_char b 'R'
          | Write v ->
              Buffer.add_char b 'W';
              add_str v))
    c.pending
