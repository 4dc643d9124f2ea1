//! Behavioural models of the fabric primitives used by the DeepStrike
//! circuits.
//!
//! The power striker is built from `LUT6_2` + two `LDCE` latches (paper
//! Fig. 2); the TDC delay line from LUT buffers and a `CARRY4` chain sampled
//! by `FDRE` flip-flops (paper Fig. 1a). The models here are functional
//! (combinational evaluation, latch/flip-flop state) plus a nominal
//! propagation delay that the PDN crate scales with voltage.

/// The set of primitive kinds known to the fabric model.
///
/// The `is_sequential` / `breaks_combinational_path` distinction is what the
/// design-rule checker uses to decide whether a feedback cycle is a banned
/// combinational loop: latches and flip-flops break the combinational path,
/// LUTs and carry muxes do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PrimitiveKind {
    /// Six-input look-up table with a single output (`O6`).
    Lut6,
    /// Six-input look-up table in dual-output mode (`O6` and `O5`).
    Lut6_2,
    /// Transparent low-latch with gate enable and asynchronous clear.
    Ldce,
    /// D flip-flop with clock enable and synchronous reset.
    Fdre,
    /// Four-bit carry chain element (`MUXCY`/`XORCY` pairs).
    Carry4,
    /// DSP48E1-style arithmetic slice (behavioural model lives in `accel`).
    Dsp48,
    /// 36 Kb block RAM.
    Bram36,
    /// Top-level input buffer.
    Ibuf,
    /// Top-level output buffer.
    Obuf,
    /// Global clock buffer.
    Bufg,
}

impl PrimitiveKind {
    /// Whether this primitive stores state (and therefore terminates a
    /// combinational path for loop analysis).
    ///
    /// Note the subtlety the paper exploits: an `LDCE` *is* sequential for
    /// DRC purposes — a LUT→LDCE→LUT cycle is not flagged as a combinational
    /// loop — yet while its gate is held open it behaves transparently and
    /// the loop oscillates. That is exactly why the latch-based striker
    /// passes DRC while still self-oscillating.
    pub fn is_sequential(self) -> bool {
        matches!(
            self,
            PrimitiveKind::Ldce
                | PrimitiveKind::Fdre
                | PrimitiveKind::Dsp48
                | PrimitiveKind::Bram36
        )
    }

    /// Nominal propagation delay through the primitive at nominal voltage,
    /// in picoseconds. Values are in the ballpark of 7-series data sheets.
    pub fn nominal_delay_ps(self) -> f64 {
        match self {
            PrimitiveKind::Lut6 | PrimitiveKind::Lut6_2 => 124.0,
            PrimitiveKind::Ldce => 280.0,
            PrimitiveKind::Fdre => 350.0,
            PrimitiveKind::Carry4 => 55.0,
            PrimitiveKind::Dsp48 => 2500.0,
            PrimitiveKind::Bram36 => 1800.0,
            PrimitiveKind::Ibuf | PrimitiveKind::Obuf => 600.0,
            PrimitiveKind::Bufg => 900.0,
        }
    }

    /// Number of logic inputs the primitive exposes in this model.
    pub fn input_count(self) -> usize {
        match self {
            PrimitiveKind::Lut6 | PrimitiveKind::Lut6_2 => 6,
            PrimitiveKind::Ldce => 4,   // D, G, GE, CLR
            PrimitiveKind::Fdre => 4,   // D, C, CE, R
            PrimitiveKind::Carry4 => 9, // CI + 4×S + 4×DI
            PrimitiveKind::Dsp48 => 3,  // A, B, D buses (abstracted)
            PrimitiveKind::Bram36 => 3,
            PrimitiveKind::Ibuf => 1,
            PrimitiveKind::Obuf => 1,
            PrimitiveKind::Bufg => 1,
        }
    }

    /// Number of outputs the primitive exposes in this model.
    pub fn output_count(self) -> usize {
        match self {
            PrimitiveKind::Lut6_2 => 2, // O6, O5
            PrimitiveKind::Carry4 => 8, // 4×CO + 4×O
            PrimitiveKind::Dsp48 => 1,
            _ => 1,
        }
    }
}

/// A six-input LUT evaluated from its 64-bit `INIT` vector.
///
/// # Example
///
/// ```
/// use fpga_fabric::primitive::Lut6;
/// let and6 = Lut6::new(0x8000_0000_0000_0000);
/// assert!(and6.eval([true; 6]));
/// assert!(!and6.eval([true, true, true, true, true, false]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lut6 {
    init: u64,
}

impl Lut6 {
    /// Creates a LUT from its `INIT` configuration word.
    pub fn new(init: u64) -> Self {
        Lut6 { init }
    }

    /// An inverter on `I0` (ignores the other inputs), as used by ring
    /// oscillators and by the striker cell's feedback path.
    pub fn inverter() -> Self {
        // Output is 1 whenever bit I0 of the address is 0.
        let mut init = 0u64;
        for addr in 0..64u64 {
            if addr & 1 == 0 {
                init |= 1 << addr;
            }
        }
        Lut6 { init }
    }

    /// A buffer on `I0`.
    pub fn buffer() -> Self {
        let mut init = 0u64;
        for addr in 0..64u64 {
            if addr & 1 == 1 {
                init |= 1 << addr;
            }
        }
        Lut6 { init }
    }

    /// The raw `INIT` word.
    pub fn init(&self) -> u64 {
        self.init
    }

    /// Evaluates the LUT for the input vector `[I0, .., I5]`.
    pub fn eval(&self, inputs: [bool; 6]) -> bool {
        let mut addr = 0usize;
        for (i, bit) in inputs.iter().enumerate() {
            if *bit {
                addr |= 1 << i;
            }
        }
        (self.init >> addr) & 1 == 1
    }
}

/// A dual-output LUT (`LUT6_2`): `O6` is the full six-input function, `O5`
/// is the five-input function stored in `INIT[31:0]`.
///
/// DeepStrike configures one `LUT6_2` as **two parallel inverters** so a
/// single LUT feeds two oscillating latch loops (paper Fig. 2), halving the
/// LUT cost per loop relative to an RO.
///
/// # Example
///
/// ```
/// use fpga_fabric::primitive::Lut6_2;
/// let cell = Lut6_2::dual_inverter();
/// // O5 inverts I0, O6 inverts I1 (with I5 tied high for dual-output mode).
/// let (o6, o5) = cell.eval([false, false, false, false, false, true]);
/// assert!(o6 && o5);
/// let (o6, o5) = cell.eval([true, true, false, false, false, true]);
/// assert!(!o6 && !o5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lut6_2 {
    init: u64,
}

impl Lut6_2 {
    /// Creates a dual-output LUT from its `INIT` word.
    pub fn new(init: u64) -> Self {
        Lut6_2 { init }
    }

    /// Two parallel inverters: `O5 = !I0` (lower half), `O6 = !I1` when
    /// `I5 = 1` (dual-output convention of 7-series LUTs).
    pub fn dual_inverter() -> Self {
        let mut init = 0u64;
        for addr in 0..64u64 {
            let i0 = addr & 1;
            let i1 = (addr >> 1) & 1;
            if addr < 32 {
                // INIT[31:0] drives O5 = !I0.
                if i0 == 0 {
                    init |= 1 << addr;
                }
            } else {
                // INIT[63:32] drives O6 (when I5 = 1) = !I1.
                if i1 == 0 {
                    init |= 1 << addr;
                }
            }
        }
        Lut6_2 { init }
    }

    /// The raw `INIT` word.
    pub fn init(&self) -> u64 {
        self.init
    }

    /// Evaluates `(O6, O5)` for inputs `[I0, .., I5]`.
    ///
    /// `O5` only depends on `I0..I4` (address into the low 32 bits); `O6`
    /// reads the full table.
    pub fn eval(&self, inputs: [bool; 6]) -> (bool, bool) {
        let mut addr = 0usize;
        for (i, bit) in inputs.iter().enumerate() {
            if *bit {
                addr |= 1 << i;
            }
        }
        let o6 = (self.init >> addr) & 1 == 1;
        let addr5 = addr & 0x1f;
        let o5 = (self.init >> addr5) & 1 == 1;
        (o6, o5)
    }
}

/// Transparent low-latch with gate enable and asynchronous clear (`LDCE`).
///
/// Truth table (per the Xilinx libraries guide):
///
/// | CLR | GE | G | D | Q          |
/// |-----|----|---|---|------------|
/// | 1   | x  | x | x | 0          |
/// | 0   | 0  | x | x | (no change)|
/// | 0   | 1  | 1 | d | d          |
/// | 0   | 1  | 0 | x | (no change)|
///
/// # Example
///
/// ```
/// use fpga_fabric::primitive::Ldce;
/// let mut latch = Ldce::new();
/// latch.update(true, true, true, false);  // transparent, captures 1
/// assert!(latch.q());
/// latch.update(false, false, true, false); // gate closed, holds
/// assert!(latch.q());
/// latch.update(false, true, true, true);   // async clear wins
/// assert!(!latch.q());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ldce {
    q: bool,
}

impl Ldce {
    /// A latch initialised to 0.
    pub fn new() -> Self {
        Ldce { q: false }
    }

    /// Current output.
    pub fn q(&self) -> bool {
        self.q
    }

    /// Applies one evaluation step and returns the (possibly new) output.
    pub fn update(&mut self, d: bool, g: bool, ge: bool, clr: bool) -> bool {
        if clr {
            self.q = false;
        } else if ge && g {
            self.q = d;
        }
        self.q
    }
}

/// D flip-flop with clock enable and synchronous reset (`FDRE`).
///
/// `tick` models one rising clock edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fdre {
    q: bool,
}

impl Fdre {
    /// A flip-flop initialised to 0.
    pub fn new() -> Self {
        Fdre { q: false }
    }

    /// Current output.
    pub fn q(&self) -> bool {
        self.q
    }

    /// Applies a rising clock edge.
    pub fn tick(&mut self, d: bool, ce: bool, r: bool) -> bool {
        if r {
            self.q = false;
        } else if ce {
            self.q = d;
        }
        self.q
    }
}

/// One four-bit carry-chain element (`CARRY4`), the building block of the
/// TDC's `DL_CARRY` delay line.
///
/// For each of the four stages: `CO[i] = S[i] ? CI_chain : DI[i]` and
/// `O[i] = S[i] ^ CI_chain`, where `CI_chain` is the carry entering stage
/// `i`. In TDC usage all `S` inputs are tied high so the carry input ripples
/// through all four stages, each adding ~`CARRY4` delay / 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Carry4;

impl Carry4 {
    /// Evaluates the chain: returns `(co, o)` arrays given the carry-in,
    /// select bits and data inputs.
    pub fn eval(ci: bool, s: [bool; 4], di: [bool; 4]) -> ([bool; 4], [bool; 4]) {
        let mut co = [false; 4];
        let mut o = [false; 4];
        let mut carry = ci;
        for i in 0..4 {
            o[i] = s[i] ^ carry;
            carry = if s[i] { carry } else { di[i] };
            co[i] = carry;
        }
        (co, o)
    }

    /// Per-stage propagation delay at nominal voltage, in picoseconds.
    ///
    /// This is the TDC's resolution quantum: a 7-series `CARRY4` propagates
    /// carry-in to carry-out in roughly 55 ps, i.e. ~14 ps per stage.
    pub fn per_stage_delay_ps() -> f64 {
        PrimitiveKind::Carry4.nominal_delay_ps() / 4.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lut6_inverter_and_buffer() {
        let inv = Lut6::inverter();
        let buf = Lut6::buffer();
        for rest in 0..32u8 {
            let mk = |i0: bool| {
                let mut v = [false; 6];
                v[0] = i0;
                for b in 0..5 {
                    v[b + 1] = (rest >> b) & 1 == 1;
                }
                v
            };
            assert!(inv.eval(mk(false)));
            assert!(!inv.eval(mk(true)));
            assert!(!buf.eval(mk(false)));
            assert!(buf.eval(mk(true)));
        }
    }

    #[test]
    fn lut6_2_dual_inverter_is_two_independent_inverters() {
        let cell = Lut6_2::dual_inverter();
        for i0 in [false, true] {
            for i1 in [false, true] {
                let (o6, o5) = cell.eval([i0, i1, false, false, false, true]);
                assert_eq!(o5, !i0, "O5 must invert I0");
                assert_eq!(o6, !i1, "O6 must invert I1");
            }
        }
    }

    #[test]
    fn ldce_truth_table() {
        let mut l = Ldce::new();
        // Gate enable low: hold.
        l.update(true, true, false, false);
        assert!(!l.q());
        // Transparent: follow D.
        l.update(true, true, true, false);
        assert!(l.q());
        l.update(false, true, true, false);
        assert!(!l.q());
        // Gate low: hold last value.
        l.update(true, true, true, false);
        l.update(false, false, true, false);
        assert!(l.q());
        // Async clear dominates.
        l.update(true, true, true, true);
        assert!(!l.q());
    }

    #[test]
    fn fdre_tick_semantics() {
        let mut ff = Fdre::new();
        ff.tick(true, false, false);
        assert!(!ff.q(), "ce gates capture");
        ff.tick(true, true, false);
        assert!(ff.q());
        ff.tick(true, true, true);
        assert!(!ff.q(), "sync reset wins");
    }

    #[test]
    fn carry4_ripples_carry_when_selected() {
        // All S high: CO[i] = CI for all stages (ripple), O[i] = !CI ^ ...
        let (co, o) = Carry4::eval(true, [true; 4], [false; 4]);
        assert_eq!(co, [true; 4]);
        assert_eq!(o, [false; 4], "S ^ CI = 1 ^ 1 = 0");
        let (co, _) = Carry4::eval(false, [true; 4], [false; 4]);
        assert_eq!(co, [false; 4]);
        // S low: CO[i] = DI[i].
        let (co, _) = Carry4::eval(true, [false; 4], [true, false, true, false]);
        assert_eq!(co, [true, false, true, false]);
    }

    #[test]
    fn sequential_classification_matches_drc_expectations() {
        assert!(PrimitiveKind::Ldce.is_sequential());
        assert!(PrimitiveKind::Fdre.is_sequential());
        assert!(!PrimitiveKind::Lut6.is_sequential());
        assert!(!PrimitiveKind::Lut6_2.is_sequential());
        assert!(!PrimitiveKind::Carry4.is_sequential());
    }

    #[test]
    fn delays_are_positive_and_ordered() {
        assert!(Carry4::per_stage_delay_ps() > 0.0);
        assert!(
            PrimitiveKind::Carry4.nominal_delay_ps() < PrimitiveKind::Lut6.nominal_delay_ps() * 4.0,
            "carry chain must be much faster than LUT routing, else the TDC has no resolution"
        );
    }
}
