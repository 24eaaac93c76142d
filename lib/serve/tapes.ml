(* Compiled-tape cache, keyed by topology digest.

   A tape is a pure function of the tree it was compiled from, so the
   key is the digest of the tree's canonical encoding
   ({!Codec_bin.encode_tree}).  That is exactly the blob an encoded
   request carries ({!Codec_bin.request_tree_span}), so the server
   digests the raw blob in place instead of re-encoding the tree.
   Lookups count both in the LRU and on the obs counters
   [tape.hit]/[tape.miss]. *)

let obs_hit = Obs.Counters.counter Obs.Counters.global "tape.hit"
let obs_miss = Obs.Counters.counter Obs.Counters.global "tape.miss"

type t = Compile.Tape.t Lru.t

let create ~entries = Lru.create ~capacity:entries

let digest_of_tree tree =
  Digest.to_hex (Digest.string (Codec_bin.encode_tree tree))

let digest_of_span payload ~off ~len =
  Digest.to_hex (Digest.substring payload off len)

let obtain ?digest t tree =
  let digest = match digest with Some d -> d | None -> digest_of_tree tree in
  match Lru.find t digest with
  | Some tape ->
    if Obs.Control.on () then Obs.Counters.incr obs_hit 1;
    tape
  | None ->
    if Obs.Control.on () then Obs.Counters.incr obs_miss 1;
    (* Compile outside the lock: a concurrent duplicate costs one
       redundant compile, never a stall of unrelated requests. *)
    let tape = Compile.Tape.compile tree in
    Lru.put t digest tape;
    tape

let stats = Lru.stats
