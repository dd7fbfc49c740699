(* A persistent pool of worker domains. Workers are spawned lazily on the
   first parallel run, then parked on a condition variable between runs, so
   repeated kernel launches pay no domain-spawn cost. *)

let pool_mutex = Mutex.create ()
let pool_cond = Condition.create ()
let tasks : (unit -> unit) Queue.t = Queue.create ()
let spawned = ref 0

(* A worker loops forever: pop a task, run it, park again. Tasks never let
   exceptions escape (see [run]), so a worker cannot die. The process may
   exit while workers are parked; the runtime tears them down with it. *)
let rec worker_loop () =
  Mutex.lock pool_mutex;
  while Queue.is_empty tasks do
    Condition.wait pool_cond pool_mutex
  done;
  let task = Queue.pop tasks in
  Mutex.unlock pool_mutex;
  task ();
  worker_loop ()

let ensure_workers n =
  Mutex.lock pool_mutex;
  while !spawned < n do
    incr spawned;
    ignore (Domain.spawn worker_loop)
  done;
  Mutex.unlock pool_mutex

let max_jobs = 64

let run ?(cancel = Cancel.none) ?(trace = Weaver_obs.Trace.none) ~jobs f =
  Cancel.check cancel;
  (* Per-worker wall-clock debug spans. They are inherently
     jobs-dependent, so the tracer keeps them on wall-only Worker lanes
     that the deterministic export excludes. *)
  let f =
    let module T = Weaver_obs.Trace in
    if T.recording trace && T.has_clock trace then fun w ->
      let s = T.wall_span trace ~lane:(T.Worker w) "interp" in
      match f w with
      | args -> T.close trace s ~args
      | exception e ->
          T.close trace s;
          raise e
    else fun w -> ignore (f w)
  in
  if jobs <= 1 then f 0
  else begin
    let jobs = min jobs max_jobs in
    ensure_workers (jobs - 1);
    let done_mutex = Mutex.create () in
    let done_cond = Condition.create () in
    let pending = ref jobs in
    let errors = ref [] in
    let body w =
      (try f w
       with e ->
         Mutex.lock done_mutex;
         errors := (w, e) :: !errors;
         Mutex.unlock done_mutex);
      Mutex.lock done_mutex;
      decr pending;
      if !pending = 0 then Condition.broadcast done_cond;
      Mutex.unlock done_mutex
    in
    Mutex.lock pool_mutex;
    for w = 1 to jobs - 1 do
      Queue.push (fun () -> body w) tasks
    done;
    Condition.broadcast pool_cond;
    Mutex.unlock pool_mutex;
    body 0;
    Mutex.lock done_mutex;
    while !pending > 0 do
      Condition.wait done_cond done_mutex
    done;
    Mutex.unlock done_mutex;
    (* deterministic choice when several workers failed *)
    match List.sort (fun (a, _) (b, _) -> Int.compare a b) !errors with
    | (_, e) :: _ -> raise e
    | [] -> ()
  end
