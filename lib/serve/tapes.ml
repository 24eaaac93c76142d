(* Compiled-tape cache, keyed by topology digest.

   A tape is a pure function of the tree it was compiled from, so the
   key is the digest of the tree's canonical v2 encoding
   ({!Codec_bin.encode_tree}).  That is exactly the blob an encoded v2
   request carries ({!Codec_bin.request_tree_span}), which buys the
   server a second win: when a request's tree digest hits this cache,
   the stored decoded tree can stand in for parsing the blob at all
   ({!Codec_bin.decode_request_using_tree}).

   Two lookup flavours mirror the two call sites.  The server's
   dispatch thread {!peek}s — a pure read, no counters and no recency
   — because the authoritative consult happens later in the handler,
   and counting both would double-book every warm request.  The
   handler's {!obtain} counts, both in the LRU and on the obs
   counters [tape.hit]/[tape.miss]. *)

let obs_hit = Obs.Counters.counter Obs.Counters.global "tape.hit"
let obs_miss = Obs.Counters.counter Obs.Counters.global "tape.miss"

type entry = { tree : Rctree.Tree.t; tape : Compile.Tape.t }
type t = entry Lru.t

let create ~entries = Lru.create ~capacity:entries

let digest_of_tree tree =
  Digest.to_hex (Digest.string (Codec_bin.encode_tree tree))

let digest_of_span payload ~off ~len =
  Digest.to_hex (Digest.substring payload off len)

let peek = Lru.peek

let obtain ?digest t tree =
  let digest = match digest with Some d -> d | None -> digest_of_tree tree in
  match Lru.find t digest with
  | Some e ->
    if Obs.Control.on () then Obs.Counters.incr obs_hit 1;
    e.tape
  | None ->
    if Obs.Control.on () then Obs.Counters.incr obs_miss 1;
    (* Compile outside the lock: a concurrent duplicate costs one
       redundant compile, never a stall of unrelated requests. *)
    let tape = Compile.Tape.compile tree in
    Lru.put t digest { tree; tape };
    tape

let stats = Lru.stats
