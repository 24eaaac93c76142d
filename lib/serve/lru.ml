(* The one LRU implementation behind the serve caches: the response
   cache ({!Cache}) and the compiled-tape cache ({!Tapes}).

   Recency is a logical clock: each touch restamps the entry, and
   insertion over capacity evicts the entry with the oldest stamp via
   a linear scan.  The scan is O(capacity), which is fine at the
   capacities these caches run at (tens to a few hundred) — every
   insertion already paid for a parse or an optimisation run.

   Both users share their instance across the pool's domains, so every
   operation takes the instance's own mutex. *)

type 'a entry = { value : 'a; mutable stamp : int }

type 'a t = {
  capacity : int;
  table : (string, 'a entry) Hashtbl.t;
  mutex : Mutex.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Serve.Lru.create: capacity must be >= 1";
  {
    capacity;
    table = Hashtbl.create (min capacity 64);
    mutex = Mutex.create ();
    clock = 0;
    hits = 0;
    misses = 0;
  }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t key =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e ->
        e.stamp <- tick t;
        t.hits <- t.hits + 1;
        Some e.value
      | None ->
        t.misses <- t.misses + 1;
        None)

let evict_oldest t =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, s) when s <= e.stamp -> ()
      | _ -> victim := Some (k, e.stamp))
    t.table;
  match !victim with Some (k, _) -> Hashtbl.remove t.table k | None -> ()

let put t key value =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e -> e.stamp <- tick t
      | None ->
        if Hashtbl.length t.table >= t.capacity then evict_oldest t;
        Hashtbl.add t.table key { value; stamp = tick t })

type stats = { entries : int; capacity : int; hits : int; misses : int }

let stats t =
  Mutex.protect t.mutex (fun () ->
      {
        entries = Hashtbl.length t.table;
        capacity = t.capacity;
        hits = t.hits;
        misses = t.misses;
      })

let length t = (stats t).entries
let capacity (t : _ t) = t.capacity
let hits t = (stats t).hits
let misses t = (stats t).misses
