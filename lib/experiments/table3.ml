type summary_row = {
  arm : Setup.arm;
  cells : (float * Table2.cell) list;
}

type claims = {
  epsilon : float;
  accuracy_gain : float;
  robustness_gain : float;
  learnable_contribution : float option;
  va_contribution : float option;
}

type t = { rows : summary_row list; claims : claims list }

let arm_of ~learnable ~variation_aware =
  { Setup.learnable; variation_aware }

let of_table2 scale table2 =
  let rows =
    List.map
      (fun arm ->
        {
          arm;
          cells =
            List.map
              (fun eps -> (eps, Table2.average_of table2 ~arm ~epsilon:eps))
              scale.Setup.test_epsilons;
        })
      Setup.arms
  in
  let cell_for arm eps = Table2.average_of table2 ~arm ~epsilon:eps in
  let claims =
    List.map
      (fun eps ->
        let full = cell_for (arm_of ~learnable:true ~variation_aware:true) eps in
        let learn_only = cell_for (arm_of ~learnable:true ~variation_aware:false) eps in
        let va_only = cell_for (arm_of ~learnable:false ~variation_aware:true) eps in
        let baseline = cell_for (arm_of ~learnable:false ~variation_aware:false) eps in
        let total_gain = full.Table2.mean -. baseline.Table2.mean in
        let learn_gain = learn_only.Table2.mean -. baseline.Table2.mean in
        let va_gain = va_only.Table2.mean -. baseline.Table2.mean in
        (* contribution split (paper §IV-D): shares of a positive total, so
           defined only when neither single-factor arm loses to the baseline *)
        let parts = learn_gain +. va_gain in
        let defined = learn_gain >= 0.0 && va_gain >= 0.0 && parts > 1e-9 in
        let share g = if defined then Some (g /. parts) else None in
        let learnable_contribution = share learn_gain and va_contribution = share va_gain in
        {
          epsilon = eps;
          accuracy_gain = total_gain /. Stdlib.max baseline.Table2.mean 1e-9;
          robustness_gain =
            (baseline.Table2.std -. full.Table2.std)
            /. Stdlib.max baseline.Table2.std 1e-9;
          learnable_contribution;
          va_contribution;
        })
      scale.Setup.test_epsilons
  in
  { rows; claims }

let render t =
  let epsilons =
    match t.rows with [] -> [] | r :: _ -> List.map fst r.cells
  in
  let header =
    "Learnable" :: "Variation-aware"
    :: List.map (fun e -> Printf.sprintf "eps=%g%%" (e *. 100.0)) epsilons
  in
  let mark b = if b then "yes" else "no" in
  let rows =
    List.map
      (fun row ->
        mark row.arm.Setup.learnable
        :: mark row.arm.Setup.variation_aware
        :: List.map
             (fun (_, c) -> Report.cell c.Table2.mean c.Table2.std)
             row.cells)
      t.rows
  in
  let claims_lines =
    List.map
      (fun c ->
        let contributions =
          match (c.learnable_contribution, c.va_contribution) with
          | Some l, Some v ->
              Printf.sprintf "learnable %.0f%%, variation-aware %.0f%%" (l *. 100.0)
                (v *. 100.0)
          | _ -> "undefined"
        in
        (* the robustness gain prints as the signed change of the std *)
        Printf.sprintf "@%g%%: accuracy %+.0f%%, robustness (std) %+.0f%%; contributions: %s"
          (c.epsilon *. 100.0)
          (c.accuracy_gain *. 100.0)
          (-.(c.robustness_gain *. 100.0))
          contributions)
      t.claims
  in
  Report.table ~header ~rows ^ String.concat "\n" claims_lines ^ "\n"
