type choice =
  | At_sink of int
  | Wire of { node : int; width : int; from : choice }
  | Buffered of { node : int; buffer : int; from : choice }
  | Merged of { node : int; left : choice; right : choice }

type t = {
  load : Linform.t;
  rat : Linform.t;
  power : float;
  choice : choice;
}

let mean_load s = Linform.mean s.load
let mean_rat s = Linform.mean s.rat
let power s = s.power

let of_sink ~node ~cap ~rat =
  {
    load = Linform.const cap;
    rat = Linform.const rat;
    power = 0.0;
    choice = At_sink node;
  }

let buffers_of_choice choice =
  let rec walk acc = function
    | At_sink _ -> acc
    | Wire { from; _ } -> walk acc from
    | Buffered { node; buffer; from } -> walk ((node, buffer) :: acc) from
    | Merged { left; right; _ } -> walk (walk acc left) right
  in
  walk [] choice

let widths_of_choice choice =
  let rec walk acc = function
    | At_sink _ -> acc
    | Wire { node; width; from } ->
      walk (if width <> 0 then (node, width) :: acc else acc) from
    | Buffered { from; _ } -> walk acc from
    | Merged { left; right; _ } -> walk (walk acc left) right
  in
  walk [] choice

let pp ppf s =
  Format.fprintf ppf "L=%a T=%a P=%.2ffJ" Linform.pp s.load Linform.pp s.rat
    s.power
