(** The parametric nonlinear subcircuit of the paper (Fig. 1, right).

    Two cascaded inverter stages built from the physical parameters
    ω = [R1ᴺ, R2ᴺ, R3ᴺ, R4ᴺ, R5ᴺ, W, L]:

    {v
        Vin ──R1──┬          VDD            VDD
                  R2    R5─┤            R5─┤
                  │        ├── n1 ─R3─┬    ├── Vout
       stage 1:   └──gate T1          R4 ──gate T2
                           │          │    │
                          GND        GND  GND
    v}

    Stage 1: the R1/R2 divider conditions the input (the R1ᴺ > R2ᴺ
    constraint of Table I keeps its ratio below 1/2); T1 with load R5 inverts.
    Stage 2: the R3/R4 divider conditions the stage-1 output; T2 with a second
    copy of R5 inverts again, so the overall transfer is a rising tanh-like
    curve — the [ptanh] of Eq. 2.  The negative-weight circuit (Eq. 3) reuses
    the same hardware; its behavioural model is the negated fit (see
    [Fit.Ptanh]). *)

type omega = {
  r1 : float;  (** Ω *)
  r2 : float;  (** Ω *)
  r3 : float;  (** kΩ, stored in Ω here *)
  r4 : float;  (** kΩ, stored in Ω here *)
  r5 : float;  (** kΩ, stored in Ω here *)
  w_um : float;
  l_um : float;
}

val vdd : float
(** Supply/bias voltage (1 V, the paper's V_b). *)

val omega_of_array : float array -> omega
(** From [[|r1; r2; r3; r4; r5; w; l|]] in Ω/Ω/Ω/Ω/Ω/µm/µm. *)

val build : omega -> Netlist.t * Netlist.node
(** Netlist with a sweepable source named ["vin"]; returns the output node. *)

val transfer :
  ?model:Egt.params -> ?points:int -> omega -> (float array * float array)
(** [transfer omega] sweeps Vin over [0, vdd] and returns
    [(vin_array, vout_array)]. Default 41 points. *)
