(* Chrome trace-event exporter.

   Determinism contract: the default export depends only on the
   simulated-cycle timeline, which is bit-identical across jobs=1 and
   jobs=N. Wall-clock fields never reach the default output; events are
   sorted by (ts, pid, tid, name) with a stable sort so equal keys keep
   emission order, and floats print through one canonical formatter. *)

(* pid 1 = simulated device timeline, pid 2 = host wall clock. *)
let sim_pid = 1
let wall_pid = 2

let lane_ids = function
  | Trace.Driver -> (sim_pid, 1)
  | Trace.Gate -> (sim_pid, 2)
  | Trace.Host -> (sim_pid, 3)
  | Trace.Kernel -> (sim_pid, 4)
  | Trace.Pcie -> (sim_pid, 5)
  | Trace.Mem -> (sim_pid, 6)
  | Trace.Queue -> (sim_pid, 7)
  | Trace.Service -> (sim_pid, 8)
  | Trace.Attrib -> (sim_pid, 9)
  | Trace.Worker w -> (wall_pid, 1 + w)

(* One canonical float rendering so exports compare byte-for-byte:
   integral values print without a fractional part. *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6f" v

let render_value = function
  | Trace.Int i -> string_of_int i
  | Trace.Float f -> num f
  | Trace.Str s -> "\"" ^ Json.escape s ^ "\""

let render_args args =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> "\"" ^ Json.escape k ^ "\":" ^ render_value v) args)
  ^ "}"

let meta_event ~pid ~tid ~what ~name =
  Printf.sprintf
    "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
    what pid tid (Json.escape name)

let event_json (e : Trace.event) =
  let pid, tid = lane_ids e.lane in
  let common = Printf.sprintf "\"pid\":%d,\"tid\":%d" pid tid in
  let name = Json.escape e.name in
  let args = if e.args = [] then "" else ",\"args\":" ^ render_args e.args in
  match e.kind with
  | Trace.Span ->
      Printf.sprintf "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,%s%s}" name
        (num e.cycles) (num e.dur) common args
  | Trace.Wall ->
      (* wall seconds -> microseconds, the trace-event native unit *)
      Printf.sprintf "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,%s%s}" name
        (num (e.wall *. 1e6))
        (num (e.wall_dur *. 1e6))
        common args
  | Trace.Instant ->
      Printf.sprintf "{\"name\":\"%s\",\"ph\":\"i\",\"ts\":%s,\"s\":\"t\",%s%s}" name
        (num e.cycles) common args
  | Trace.Counter ->
      Printf.sprintf "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%s,%s,\"args\":{\"%s\":%s}}"
        name (num e.cycles) common name (num e.dur)

let export ?(wall = false) ?(lanes = fun _ -> true) t =
  let evs =
    List.filter
      (fun (e : Trace.event) ->
        lanes e.lane
        && match e.kind with Trace.Wall -> wall | _ -> true)
      (Trace.events t)
  in
  (* Stable sort by (timestamp, pid, tid, name): emission order breaks
     remaining ties, and the simulated lanes' emission order is itself
     deterministic. *)
  let key (e : Trace.event) =
    let pid, tid = lane_ids e.lane in
    let ts = match e.kind with Trace.Wall -> e.wall *. 1e6 | _ -> e.cycles in
    (ts, pid, tid, e.name)
  in
  let evs = List.stable_sort (fun a b -> compare (key a) (key b)) evs in
  (* Name the processes and every lane that actually appears. *)
  let lanes =
    List.sort_uniq compare (List.map (fun (e : Trace.event) -> e.lane) evs)
  in
  let pids = List.sort_uniq compare (List.map (fun l -> fst (lane_ids l)) lanes) in
  let meta =
    List.map
      (fun pid ->
        let pname = if pid = sim_pid then "weaver (simulated cycles)" else "weaver (wall clock)" in
        meta_event ~pid ~tid:0 ~what:"process_name" ~name:pname)
      pids
    @ List.map
        (fun l ->
          let pid, tid = lane_ids l in
          meta_event ~pid ~tid ~what:"thread_name" ~name:(Trace.lane_name l))
        lanes
  in
  let body = meta @ List.map event_json evs in
  "{\"traceEvents\":[\n" ^ String.concat ",\n" body
  ^ "\n],\"displayTimeUnit\":\"ms\"}\n"
