include Job

let grid_for (_ : setup) ~die_um = grid ~die_um

let map_cells setup ~f xs =
  match setup.pool with
  | Some pool when Exec.Pool.jobs pool > 1 ->
    (* Cells are few and heavy: one pool task each. *)
    Exec.Pool.parallel_map ~chunk:1 pool ~f xs
  | _ -> List.map f xs

let type_histogram setup buffers =
  let n = Array.length setup.library in
  let counts = Array.make n 0 in
  List.iter
    (fun ((_ : int), (b : Device.Buffer.t)) ->
      Array.iteri
        (fun i (lb : Device.Buffer.t) ->
          if lb.Device.Buffer.name = b.Device.Buffer.name then
            counts.(i) <- counts.(i) + 1)
        setup.library)
    buffers;
  Array.to_list (Array.mapi (fun i c -> (setup.library.(i), c)) counts)

let mix_string setup buffers =
  type_histogram setup buffers
  |> List.map (fun ((b : Device.Buffer.t), c) ->
         Printf.sprintf "%s:%d" b.Device.Buffer.name c)
  |> String.concat " "

let pp_row ppf cells =
  List.iteri
    (fun i cell ->
      if i = 0 then Format.fprintf ppf "%-8s" cell
      else Format.fprintf ppf " %14s" cell)
    cells;
  Format.fprintf ppf "@."
