(* Shared plumbing: OS counters, order statistics, the metric sink and
   child-process management. *)

let now = Unix.gettimeofday

(* ----- per-process OS counters ----- *)

(* CPU comes from getrusage (Unix.times, microsecond resolution); the
   scheduler and I/O counters from /proc/self/{status,io}. *)
type proc = {
  user_s : float;
  sys_s : float;
  vol_cs : int;  (** voluntary context switches: blocking waits *)
  invol_cs : int;  (** involuntary context switches: preemptions *)
  syscr : int;  (** read-class syscalls *)
  syscw : int;  (** write-class syscalls *)
  hwm_kb : int;  (** VmHWM: peak resident set *)
}

let zero_proc =
  { user_s = 0.; sys_s = 0.; vol_cs = 0; invol_cs = 0; syscr = 0; syscw = 0; hwm_kb = 0 }

let proc_fields path =
  match In_channel.with_open_text path In_channel.input_all with
  | text ->
      String.split_on_char '\n' text
      |> List.filter_map (fun line ->
             match String.index_opt line ':' with
             | None -> None
             | Some i ->
                 let key = String.sub line 0 i in
                 let rest = String.sub line (i + 1) (String.length line - i - 1) in
                 let num =
                   String.split_on_char ' ' (String.trim rest)
                   |> List.find_map int_of_string_opt
                 in
                 Option.map (fun v -> (key, v)) num)
  | exception Sys_error _ -> []

let field fields key = Option.value ~default:0 (List.assoc_opt key fields)

let proc_self () =
  let t = Unix.times () in
  let st = proc_fields "/proc/self/status" and io = proc_fields "/proc/self/io" in
  {
    user_s = t.Unix.tms_utime;
    sys_s = t.Unix.tms_stime;
    vol_cs = field st "voluntary_ctxt_switches";
    invol_cs = field st "nonvoluntary_ctxt_switches";
    syscr = field io "syscr";
    syscw = field io "syscw";
    hwm_kb = field st "VmHWM";
  }

(* [b - a]; the high-water mark is a level, not a counter *)
let proc_diff b a =
  {
    user_s = b.user_s -. a.user_s;
    sys_s = b.sys_s -. a.sys_s;
    vol_cs = b.vol_cs - a.vol_cs;
    invol_cs = b.invol_cs - a.invol_cs;
    syscr = b.syscr - a.syscr;
    syscw = b.syscw - a.syscw;
    hwm_kb = b.hwm_kb;
  }

let proc_add a b =
  {
    user_s = a.user_s +. b.user_s;
    sys_s = a.sys_s +. b.sys_s;
    vol_cs = a.vol_cs + b.vol_cs;
    invol_cs = a.invol_cs + b.invol_cs;
    syscr = a.syscr + b.syscr;
    syscw = a.syscw + b.syscw;
    hwm_kb = max a.hwm_kb b.hwm_kb;
  }

let cpu_s p = p.user_s +. p.sys_s

(* ----- order statistics ----- *)

(* Nearest-rank quantile of an unsorted sample (copied, then sorted). *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs = quantile (Array.of_list xs) 0.5

(* The shared host alternates between fast and slow phases lasting
   seconds, and a median over rounds swings with the share of slow
   phases.  Per-round figures are therefore reduced to their better
   quartile: the lower quartile of a cost, the upper of a rate. *)
let best_cost xs = quantile (Array.of_list xs) 0.25
let best_rate xs = quantile (Array.of_list xs) 0.75
let sumi = List.fold_left ( + ) 0
let per a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let per_f a b = if b = 0 then 0. else a /. float_of_int b

(* ----- the metric sink ----- *)

let metrics : (string * string * float) list ref = ref []

(* Record a metric; repeated names keep the last value. *)
let metric name unit value =
  metrics :=
    (name, unit, value)
    :: List.filter (fun (n, _, _) -> not (String.equal n name)) !metrics

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_string s = Printf.sprintf "%S" s

(* ----- run directory and child processes ----- *)

(* All sockets and trace files live under [.bench_run/<pid>] in the
   working directory (the repository root): relative paths keep unix
   socket paths short whatever the checkout's location. *)
let run_dir =
  lazy
    (let root = ".bench_run" in
     (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     let d = Filename.concat root (string_of_int (Unix.getpid ())) in
     (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     d)

(* Where a traced run leaves its spans, emptied first: outside the
   per-process directory, which is removed at exit. *)
let spans_path ~workload ~seed =
  ignore (Lazy.force run_dir);
  let path = Printf.sprintf ".bench_run/spans-%s-seed%d.jsonl" workload seed in
  (try Sys.remove path with Sys_error _ -> ());
  path

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

(* Filesystem type holding [path], from the longest /proc/mounts prefix. *)
let fs_type path =
  let real = try Unix.realpath path with Unix.Unix_error _ -> path in
  match In_channel.with_open_text "/proc/mounts" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | text ->
      String.split_on_char '\n' text
      |> List.fold_left
           (fun (best_len, best) line ->
             match String.split_on_char ' ' line with
             | _ :: mnt :: fs :: _ ->
                 let l = String.length mnt in
                 let prefix =
                   String.equal mnt "/"
                   || (String.length real >= l
                      && String.equal (String.sub real 0 l) mnt
                      && (String.length real = l || real.[l] = '/'))
                 in
                 if prefix && l > best_len then (l, fs) else (best_len, best)
             | _ -> (best_len, best))
           (-1, "unknown")
      |> snd

type child = { pid : int; fd : Unix.file_descr; mutable reaped : bool }

let children : child list ref = ref []

(* Re-execute this binary in a child mode; the child talks back over its
   stdout (a ready byte, then one marshalled result). *)
let spawn args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: "--child" :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let c = { pid; fd = r; reaped = false } in
  children := c :: !children;
  c

let reap c =
  if not c.reaped then begin
    c.reaped <- true;
    (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    children := List.filter (fun x -> x.pid <> c.pid) !children
  end

let rec await c ~timeout_s what =
  match Unix.select [ c.fd ] [] [] timeout_s with
  | [], _, _ ->
      failwith (Printf.sprintf "child %d: timed out waiting for %s" c.pid what)
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> await c ~timeout_s what

(* The ready byte is read unbuffered, so the result that may follow it
   stays in the pipe for [result]. *)
let await_ready c =
  await c ~timeout_s:30. "ready";
  let b = Bytes.create 1 in
  if Unix.read c.fd b 0 1 <> 1 || Bytes.get b 0 <> 'R' then
    failwith (Printf.sprintf "child %d died before ready" c.pid)

(* Read the child's result, then reap it. *)
let result c ~timeout_s =
  await c ~timeout_s "result";
  let v =
    match Marshal.from_channel (Unix.in_channel_of_descr c.fd) with
    | v -> v
    | exception End_of_file ->
        failwith (Printf.sprintf "child %d died without a result" c.pid)
  in
  reap c;
  v

let kill_all () =
  List.iter
    (fun c ->
      (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap c)
    !children

(* Child side: announce readiness, later send the result and exit. *)
let send_ready () =
  print_char 'R';
  flush stdout

let send_result v =
  Marshal.to_channel stdout v [];
  flush stdout;
  exit 0
