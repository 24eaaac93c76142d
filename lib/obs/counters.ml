type counter = int Atomic.t

type hist = {
  hmu : Mutex.t;
  mutable bins : Numeric.Histogram.t;
  mutable sum : float;
  mutable vmax : float;
}

type t = {
  mu : Mutex.t;
  counters : (string, counter) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

let create () =
  { mu = Mutex.create (); counters = Hashtbl.create 32; hists = Hashtbl.create 8 }

let global = create ()

let counter t name =
  Mutex.lock t.mu;
  let c =
    match Hashtbl.find_opt t.counters name with
    | Some c -> c
    | None ->
      let c = Atomic.make 0 in
      Hashtbl.add t.counters name c;
      c
  in
  Mutex.unlock t.mu;
  c

let incr c by = ignore (Atomic.fetch_and_add c by)
let add t name by = incr (counter t name) by

let get t name =
  Mutex.lock t.mu;
  let v =
    match Hashtbl.find_opt t.counters name with
    | Some c -> Atomic.get c
    | None -> 0
  in
  Mutex.unlock t.mu;
  v

let latency_histogram () =
  Numeric.Histogram.create_log ~lo:0.01 ~hi:100_000.0 ~bins:120

(* [make] builds the bins only when the histogram is new. *)
let find_hist t name ~make =
  Mutex.lock t.mu;
  let h =
    match Hashtbl.find_opt t.hists name with
    | Some h -> h
    | None ->
      let h =
        { hmu = Mutex.create (); bins = make (); sum = 0.0; vmax = neg_infinity }
      in
      Hashtbl.add t.hists name h;
      h
  in
  Mutex.unlock t.mu;
  h

let observe t name ?lo ?hi ?bins x =
  let make () =
    match (lo, hi, bins) with
    | None, None, None -> latency_histogram ()
    | Some lo, Some hi, Some bins -> Numeric.Histogram.create ~lo ~hi ~bins
    | _ -> invalid_arg "Obs.Counters.observe: give all of lo, hi and bins, or none"
  in
  let h = find_hist t name ~make in
  Mutex.lock h.hmu;
  Numeric.Histogram.add h.bins x;
  h.sum <- h.sum +. x;
  if x > h.vmax then h.vmax <- x;
  Mutex.unlock h.hmu

type hist_stats = { count : int; mean : float; max_value : float }

let counter_values t =
  Mutex.lock t.mu;
  let vs =
    Hashtbl.fold (fun name c acc -> (name, Atomic.get c) :: acc) t.counters []
  in
  Mutex.unlock t.mu;
  List.sort compare vs

let hist_values t =
  Mutex.lock t.mu;
  let hs = Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.hists [] in
  Mutex.unlock t.mu;
  let stats (name, h) =
    Mutex.lock h.hmu;
    let count = Numeric.Histogram.total h.bins in
    let s =
      {
        count;
        mean = (if count = 0 then 0.0 else h.sum /. float_of_int count);
        max_value = (if count = 0 then 0.0 else h.vmax);
      }
    in
    Mutex.unlock h.hmu;
    (name, s)
  in
  List.sort compare (List.map stats hs)

let merge_into ~into src =
  Mutex.lock src.mu;
  let cs =
    Hashtbl.fold (fun name c acc -> (name, Atomic.get c) :: acc) src.counters []
  in
  let hs = Hashtbl.fold (fun name h acc -> (name, h) :: acc) src.hists [] in
  Mutex.unlock src.mu;
  List.iter (fun (name, v) -> add into name v) cs;
  List.iter
    (fun (name, sh) ->
      Mutex.lock sh.hmu;
      let dh =
        find_hist into name ~make:(fun () -> Numeric.Histogram.empty_like sh.bins)
      in
      Mutex.lock dh.hmu;
      dh.bins <- Numeric.Histogram.merge dh.bins sh.bins;
      dh.sum <- dh.sum +. sh.sum;
      if sh.vmax > dh.vmax then dh.vmax <- sh.vmax;
      Mutex.unlock dh.hmu;
      Mutex.unlock sh.hmu)
    hs

let reset t =
  Mutex.lock t.mu;
  Hashtbl.iter (fun _ c -> Atomic.set c 0) t.counters;
  Hashtbl.iter
    (fun _ h ->
      Mutex.lock h.hmu;
      h.bins <- Numeric.Histogram.empty_like h.bins;
      h.sum <- 0.0;
      h.vmax <- neg_infinity;
      Mutex.unlock h.hmu)
    t.hists;
  Mutex.unlock t.mu
