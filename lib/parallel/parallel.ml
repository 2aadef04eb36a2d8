let default_jobs () =
  match Sys.getenv_opt "REPRO_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

module Pool = struct
  type task = Task of (unit -> unit) | Quit

  type t = {
    jobs : int;
    queue : task Queue.t;
    mutex : Mutex.t;
    nonempty : Condition.t;
    mutable workers : unit Domain.t list;
    mutable shut : bool;
  }

  let rec worker_loop pool =
    Mutex.lock pool.mutex;
    while Queue.is_empty pool.queue do
      Condition.wait pool.nonempty pool.mutex
    done;
    let task = Queue.pop pool.queue in
    Mutex.unlock pool.mutex;
    match task with
    | Quit -> ()
    | Task f ->
        (* Task closures catch their own exceptions (see [run_items]); the
           guard only keeps a buggy task from killing the worker. *)
        (try f () with _ -> ());
        worker_loop pool

  (* OCaml 5's [Unix.fork] permanently refuses once any domain was ever
     spawned in the process, so the fork-based orchestrator needs to know
     whether the pool layer has ever spawned one (see [require_sequential]). *)
  let ever_spawned = Atomic.make false

  let create ?jobs () =
    let jobs = match jobs with Some j -> Stdlib.max 1 j | None -> default_jobs () in
    let pool =
      {
        jobs;
        queue = Queue.create ();
        mutex = Mutex.create ();
        nonempty = Condition.create ();
        workers = [];
        shut = false;
      }
    in
    if jobs > 1 then begin
      Atomic.set ever_spawned true;
      pool.workers <-
        List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool))
    end;
    pool

  let jobs t = t.jobs

  let submit pool f =
    Mutex.lock pool.mutex;
    Queue.push (Task f) pool.queue;
    Condition.signal pool.nonempty;
    Mutex.unlock pool.mutex

  let shutdown pool =
    if not pool.shut then begin
      pool.shut <- true;
      Mutex.lock pool.mutex;
      List.iter (fun _ -> Queue.push Quit pool.queue) pool.workers;
      Condition.broadcast pool.nonempty;
      Mutex.unlock pool.mutex;
      List.iter Domain.join pool.workers;
      pool.workers <- []
    end

  (* Dynamic index claiming + a blocking completion barrier.  [finished]
     counts executed bodies under [fin_mutex]; each participant reports its
     tally when the index space is exhausted, so the caller wakes exactly
     when the last in-flight body is done.  Stale helper tasks (picked up
     after completion) see an exhausted index and leave without touching the
     barrier. *)
  let run_items pool ~n ~body =
    let next = Atomic.make 0 in
    let fail = Atomic.make None in
    let finished = ref 0 in
    let fin_mutex = Mutex.create () in
    let fin_cond = Condition.create () in
    let work () =
      let claimed = ref 0 in
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else begin
          (try body i
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             ignore (Atomic.compare_and_set fail None (Some (e, bt))));
          incr claimed
        end
      done;
      if !claimed > 0 then begin
        Mutex.lock fin_mutex;
        finished := !finished + !claimed;
        if !finished >= n then Condition.broadcast fin_cond;
        Mutex.unlock fin_mutex
      end
    in
    let helpers = Stdlib.min (pool.jobs - 1) (n - 1) in
    for _ = 1 to helpers do
      submit pool work
    done;
    work ();
    Mutex.lock fin_mutex;
    while !finished < n do
      Condition.wait fin_cond fin_mutex
    done;
    Mutex.unlock fin_mutex;
    match Atomic.get fail with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()

  let parallel_for pool ~n body =
    if n <= 0 then ()
    else if pool.jobs = 1 || n = 1 || pool.shut then
      for i = 0 to n - 1 do
        body i
      done
    else run_items pool ~n ~body

  let mapi_array pool f a =
    let n = Array.length a in
    if n = 0 then [||]
    else begin
      let results = Array.make n None in
      parallel_for pool ~n (fun i -> results.(i) <- Some (f i a.(i)));
      Array.map (function Some v -> v | None -> assert false) results
    end

  let map_array pool f a = mapi_array pool (fun _ x -> f x) a
  let map_list pool f l = Array.to_list (map_array pool f (Array.of_list l))
end

(* pnnlint:allow R7 every read and write of [shared] happens under
   [shared_mutex] (get_pool/shutdown_shared below) *)
let shared = ref None
let shared_mutex = Mutex.create ()

let get_pool () =
  Mutex.lock shared_mutex;
  let pool =
    match !shared with
    | Some p -> p
    | None ->
        let p = Pool.create () in
        at_exit (fun () -> Pool.shutdown p);
        shared := Some p;
        p
  in
  Mutex.unlock shared_mutex;
  pool

let require_sequential () =
  Mutex.lock shared_mutex;
  (match !shared with
  | Some p -> Pool.shutdown p
  | None ->
      let p = Pool.create ~jobs:1 () in
      shared := Some p);
  Mutex.unlock shared_mutex;
  not (Atomic.get Pool.ever_spawned)
