let select = function
  | [] -> invalid_arg "Seeds.select: no seeds"
  | first :: rest ->
      let beats l best = l < best || (Float.is_nan best && not (Float.is_nan l)) in
      let _, chosen, _ =
        List.fold_left
          (fun (i, chosen, best) l ->
            if beats l best then (i + 1, i, l) else (i + 1, chosen, best))
          (1, 0, first) rest
      in
      chosen

type 'a t = { runs : (Pnn.Training.result * 'a) list; chosen : int }

let train ?pool f seeds =
  let pool = match pool with Some p -> p | None -> Parallel.get_pool () in
  let runs = Parallel.Pool.map_list pool f seeds in
  { runs; chosen = select (List.map (fun (r, _) -> r.Pnn.Training.val_loss) runs) }

let chosen t = List.nth t.runs t.chosen

type job = {
  key : string;
  kind : string;
  label : string;
  train : ?interrupt_after:int -> unit -> Pnn.Training.result;
}

let job ~cache ?checkpoint_every ~kind ~key ~label surrogate fit =
  let train ?interrupt_after () =
    let checkpoint =
      match checkpoint_every with
      | None -> None
      | Some every ->
          Option.map
            (fun ckpt_path ->
              { Pnn.Training.ckpt_path; every; interrupt_after })
            (Cache.member_path cache ~kind:"ckpt" ~key)
    in
    let r =
      Cache.memoize cache ~kind ~key ~encode:Pnn.Training.result_lines
        ~decode:(Pnn.Training.result_of_lines surrogate)
        (fun () -> fit checkpoint)
    in
    (* the landed result supersedes any in-progress checkpoint *)
    Option.iter
      (fun c -> try Sys.remove c.Pnn.Training.ckpt_path with Sys_error _ -> ())
      checkpoint;
    r
  in
  { key; kind; label; train }

let eval_cache cache network parts (split : Datasets.Synth.split) =
  if not (Cache.enabled cache) then None
  else
    Some
      ( cache,
        Cache.key ~schema:(Pnn.Serialize.cache_schema ()) ~kind:"mceval"
          ((Pnn.Serialize.digest network :: parts)
          @ [
              Cache.digest_lines [ Lines.tensor_line split.Datasets.Synth.x_test ];
              Cache.digest_lines
                (List.map string_of_int (Array.to_list split.Datasets.Synth.y_test));
            ]) )
