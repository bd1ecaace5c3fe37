(* Out-of-band layer timings, run after the traced rounds on inputs
   captured during them: the frame codec on the workload's real frames,
   a Marshal round trip of its real messages, the trace line codec and
   message digest on its events, and the erasure kernels at (5,3) with
   1 KiB values.  Each figure is the median of five timed batches of
   about 20 ms. *)

let batch_s = 0.02

(* Seconds per call of [f] over [items] (cycled), median of 5 batches. *)
let per_item (items : 'a array) (f : 'a -> unit) =
  if Array.length items = 0 then 0.
  else
    let one_batch () =
      let t0 = Util.now () and n = ref 0 in
      while Util.now () -. t0 < batch_s do
        Array.iter f items;
        n := !n + Array.length items
      done;
      (Util.now () -. t0) /. float_of_int !n
    in
    Util.median (List.init 5 (fun _ -> one_batch ()))

type frames = {
  encode_req_s : float;
  decode_req_s : float;
  encode_reply_s : float;
  decode_reply_s : float;
}

let decode_all bytes =
  let d = Transport.Frame.Decoder.create () in
  Transport.Frame.Decoder.feed_string d bytes;
  match Transport.Frame.Decoder.next d with
  | Some (Ok _) -> ()
  | Some (Error _) | None -> failwith "frame codec: captured frame did not decode"

let frames ~(reqs : Transport.Frame.t array) ~(replies : Transport.Frame.t array) =
  let enc fs = per_item fs (fun f -> ignore (Sys.opaque_identity (Transport.Frame.encode f))) in
  let dec fs = per_item (Array.map Transport.Frame.encode fs) decode_all in
  {
    encode_req_s = enc reqs;
    decode_req_s = dec reqs;
    encode_reply_s = enc replies;
    decode_reply_s = dec replies;
  }

(* to_string + from_string of one message *)
let marshal_round_trip (msgs : 'm array) =
  per_item msgs (fun m ->
      let s = Marshal.to_string m [] in
      ignore (Sys.opaque_identity (Marshal.from_string s 0 : 'm)))

let digest encode (msgs : 'm array) =
  per_item msgs (fun m -> ignore (Sys.opaque_identity (Transport.Trace.msg_digest encode m)))

let trace_lines (events : Transport.Trace.ev array) =
  let to_line = per_item events (fun e -> ignore (Sys.opaque_identity (Transport.Trace.to_line e))) in
  let lines = Array.map Transport.Trace.to_line events in
  let of_line = per_item lines (fun l -> ignore (Sys.opaque_identity (Transport.Trace.of_line l))) in
  (to_line, of_line)

(* Erasure encode of a 1 KiB value at (5,3), and decode averaged over
   all ten 3-subsets of the five symbols. *)
let erasure ~seed =
  let c = Erasure.create ~n:5 ~k:3 in
  let rng = Random.State.make [| seed; 0xec |] in
  let value = String.init 1024 (fun _ -> Char.chr (Random.State.int rng 256)) in
  let enc = per_item [| value |] (fun v -> ignore (Sys.opaque_identity (Erasure.encode c v))) in
  let syms = Erasure.encode c value in
  let subsets =
    List.concat_map
      (fun a ->
        List.concat_map
          (fun b ->
            List.filter_map
              (fun d -> if a < b && b < d then Some [ (a, syms.(a)); (b, syms.(b)); (d, syms.(d)) ] else None)
              [ 0; 1; 2; 3; 4 ])
          [ 0; 1; 2; 3; 4 ])
      [ 0; 1; 2; 3; 4 ]
  in
  let ok =
    List.for_all
      (fun s ->
        match Erasure.decode c ~value_len:1024 s with
        | Some v -> String.equal v value
        | None -> false)
      subsets
  in
  if not ok then failwith "erasure: decode did not reproduce the value";
  let dec =
    per_item (Array.of_list subsets) (fun s ->
        ignore (Sys.opaque_identity (Erasure.decode c ~value_len:1024 s)))
  in
  (enc, dec)
