(* The worker's response cache: encoded replies, keyed by request.

   A response is a pure function of the request minus its routing
   fields ([id] is echoed verbatim and [deadline_ms] only bounds how
   long the computation may take — neither changes the result), so the
   canonical key is the request's encoding ({!Codec_bin.encode_request})
   with both zeroed.  That encoding writes every float as its raw bits,
   so it is exact.  Keys are digests: the tree blob dominates payload
   size and storing it per entry would defeat the point of a bounded
   cache.

   Values are the {!Codec_bin.encode_response} bytes themselves: a hit
   needs only {!Codec_bin.with_response_id}, and a string is one block
   the GC never scans.  Storage, eviction and locking live in {!Lru};
   this module adds the key derivation. *)

type t = string Lru.t

let create ~entries = Lru.create ~capacity:entries

let key_of_request (req : Protocol.request) =
  Digest.to_hex
    (Digest.string
       (Codec_bin.encode_request { req with Protocol.id = 0; deadline_ms = 0 }))

let find = Lru.find
let add = Lru.put
let length = Lru.length
let stats = Lru.stats
