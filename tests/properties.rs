//! Property-based tests over the core data structures and codecs.

use deepstrike::signal_ram::{AttackScheme, SchemeProgram, SignalRam, CAPACITY_BITS};
use dnn::fixed::QFormat;
use dnn::tensor::Tensor;
use fpga_fabric::drc;
use fpga_fabric::netlist::Netlist;
use pdn::delay;
use pdn::rlc::LumpedPdn;
use proptest::prelude::*;
use uart::frame::{encode_frame, FrameDecoder};
use uart::proto::{Command, Response, StatusInfo};

proptest! {
    /// Quantisation is idempotent and error-bounded for in-range values.
    #[test]
    fn fixed_point_quantisation_laws(value in -3.9f32..3.9, frac in 1u8..8) {
        let q = QFormat::new(true, frac);
        // The error bound only holds for representable values; outside the
        // range the format saturates (covered by the next property).
        prop_assume!(value >= q.min_value() && value <= q.max_value());
        let once = q.quantize(value).to_f32();
        let twice = q.quantize(once).to_f32();
        prop_assert_eq!(once, twice, "idempotent");
        prop_assert!((once - value).abs() <= q.resolution() / 2.0 + 1e-6);
    }

    /// Saturation clamps all out-of-range values to the format bounds.
    #[test]
    fn fixed_point_saturates(value in prop::num::f32::NORMAL) {
        let q = QFormat::paper();
        let r = q.quantize(value).to_f32();
        prop_assert!(r >= q.min_value() - 1e-6 && r <= q.max_value() + 1e-6);
    }

    /// Frame round trip for arbitrary payloads, even with embedded zeros.
    #[test]
    fn frame_round_trip(payload in prop::collection::vec(any::<u8>(), 0..600)) {
        let wire = encode_frame(&payload);
        prop_assert!(!wire[..wire.len() - 1].contains(&0), "COBS body zero-free");
        let mut dec = FrameDecoder::new();
        let got = dec.push_bytes(&wire);
        prop_assert_eq!(got, vec![payload]);
        prop_assert_eq!(dec.corrupt_frames(), 0);
    }

    /// Any single corrupted byte is either detected or yields the original
    /// frame (a flip may hit redundant COBS structure in ways CRC still
    /// catches; it must never produce a *different* accepted payload).
    #[test]
    fn frame_corruption_never_forges(
        payload in prop::collection::vec(any::<u8>(), 1..80),
        pos in 0usize..64,
        mask in 1u8..=255,
    ) {
        let mut wire = encode_frame(&payload);
        let idx = pos % (wire.len() - 1); // keep the delimiter intact
        wire[idx] ^= mask;
        let mut dec = FrameDecoder::new();
        let got = dec.push_bytes(&wire);
        for frame in got {
            prop_assert_eq!(&frame, &payload, "corruption must not forge a new payload");
        }
    }

    /// Command and response codecs round-trip.
    #[test]
    fn proto_round_trip(
        max in any::<u32>(),
        data in prop::collection::vec(any::<u8>(), 0..64),
        armed in any::<bool>(),
        strikes in any::<u32>(),
    ) {
        let cmds = [
            Command::ReadTrace { max_samples: max },
            Command::UploadChunk { offset: max, data: data.clone() },
            Command::Arm { enabled: armed },
            Command::Status,
        ];
        for c in cmds {
            prop_assert_eq!(Command::from_bytes(&c.to_bytes()).unwrap(), c);
        }
        let resps = [
            Response::Trace(data),
            Response::Ack,
            Response::Status(StatusInfo {
                armed,
                triggered: !armed,
                strikes_fired: strikes,
                scheme_bits: strikes / 2,
            }),
            Response::Error(7),
        ];
        for r in resps {
            prop_assert_eq!(Response::from_bytes(&r.to_bytes()).unwrap(), r);
        }
    }

    /// Scheme compilation: bit counts and strike counts always match.
    #[test]
    fn scheme_bit_accounting(
        delay in 0u32..2_000,
        strikes in 1u32..200,
        on in 1u32..8,
        gap in 0u32..8,
    ) {
        let s = AttackScheme {
            delay_cycles: delay,
            strikes,
            strike_cycles: on,
            gap_cycles: gap,
        };
        let bits = s.to_bits();
        prop_assert_eq!(bits.len(), s.total_bits());
        let ones = bits.iter().filter(|&&b| b).count() as u32;
        prop_assert_eq!(ones, strikes * on);
        prop_assert_eq!(AttackScheme::from_bytes(&s.to_bytes()).unwrap(), s);
    }

    /// Signal-RAM playback of a 1–3 phase program reproduces the phases'
    /// concatenated compiled bits exactly once.
    #[test]
    fn signal_ram_playback_matches_bits(
        phases in prop::collection::vec((0u32..50, 0u32..20, 0u32..4, 0u32..5), 1..=3),
    ) {
        let phases: Vec<AttackScheme> = phases
            .into_iter()
            .map(|(delay_cycles, strikes, strike_cycles, gap_cycles)| AttackScheme {
                delay_cycles,
                strikes,
                strike_cycles,
                gap_cycles,
            })
            .collect();
        let reference: Vec<bool> = phases.iter().flat_map(AttackScheme::to_bits).collect();
        let program = SchemeProgram::new(phases);
        prop_assert_eq!(program.total_bits(), reference.len());
        let mut ram = SignalRam::new();
        ram.load(program).unwrap();
        ram.start();
        let played: Vec<bool> = reference.iter().map(|_| ram.next_bit()).collect();
        prop_assert_eq!(played, reference);
        prop_assert!(!ram.is_running() && !ram.next_bit(), "exhausted playback stays low");
    }

    /// Any 16-byte scheme upload either loads or is refused as too large,
    /// and a loaded one plays its compiled bits without panicking. Each
    /// little-endian field keeps all its bits, its low byte or its low
    /// nibble (two bits of `shrink` each), so both outcomes occur.
    #[test]
    fn any_scheme_upload_loads_or_is_refused(
        bytes in prop::collection::vec(any::<u8>(), 16),
        shrink in any::<u8>(),
    ) {
        let mut bytes = bytes;
        for field in 0..4 {
            let level = (shrink >> (2 * field)) & 3;
            if level > 0 {
                bytes[4 * field + 1..4 * field + 4].fill(0);
            }
            if level > 1 {
                bytes[4 * field] &= 0x0F;
            }
        }
        let s = AttackScheme::from_bytes(&bytes).unwrap();
        let exact = u128::from(s.delay_cycles)
            + u128::from(s.strikes) * (u128::from(s.strike_cycles) + u128::from(s.gap_cycles));
        let mut ram = SignalRam::new();
        match ram.load(s.into()) {
            Ok(()) => {
                prop_assert!(exact <= CAPACITY_BITS as u128);
                ram.start();
                let played: Vec<bool> = (0..=exact).map(|_| ram.next_bit()).collect();
                let mut reference = s.to_bits();
                reference.push(false);
                prop_assert_eq!(played, reference);
            }
            Err(e) => prop_assert!(
                exact > CAPACITY_BITS as u128,
                "{s:?} ({exact} bits) refused: {e}"
            ),
        }
    }

    /// The delay law is monotone in voltage.
    #[test]
    fn delay_factor_monotone(v_a in 0.4f64..1.2, v_b in 0.4f64..1.2) {
        let (lo, hi) = if v_a < v_b { (v_a, v_b) } else { (v_b, v_a) };
        prop_assert!(delay::factor(lo) >= delay::factor(hi) - 1e-12);
    }

    /// The lumped PDN never charges above Vdd or below ground under any
    /// non-negative load profile.
    #[test]
    fn pdn_voltage_stays_physical(loads in prop::collection::vec(0.0f64..12.0, 1..200)) {
        let mut pdn = LumpedPdn::new();
        for &i_load in &loads {
            let v = pdn.step(i_load, 1e-9);
            prop_assert!((-0.2..=1.2).contains(&v), "voltage {v} escaped physical range");
        }
    }

    /// DRC verdicts are invariant under cell-insertion order.
    #[test]
    fn drc_invariant_under_ordering(n_chain in 2usize..12, _ro_first in any::<bool>()) {
        let build = |ro_first: bool| {
            let mut n = Netlist::new("mix");
            let mk_ro = |n: &mut Netlist| {
                let a = n.add_lut1_inverter("roa");
                let b = n.add_lut1_inverter("rob");
                n.connect(n.output_of(a), n.input_of(b, 0)).unwrap();
                n.connect(n.output_of(b), n.input_of(a, 0)).unwrap();
            };
            let mk_chain = |n: &mut Netlist| {
                let mut prev = n.add_lut1_inverter("c0");
                for i in 1..n_chain {
                    let next = n.add_lut1_inverter(&format!("c{i}"));
                    n.connect(n.output_of(prev), n.input_of(next, 0)).unwrap();
                    prev = next;
                }
            };
            if ro_first {
                mk_ro(&mut n);
                mk_chain(&mut n);
            } else {
                mk_chain(&mut n);
                mk_ro(&mut n);
            }
            n
        };
        let r1 = drc::check(&build(true));
        let r2 = drc::check(&build(false));
        prop_assert_eq!(r1.error_count(), r2.error_count());
        prop_assert_eq!(r1.is_deployable(), r2.is_deployable());
    }

    /// Tensor reshape round-trips and preserves reductions.
    #[test]
    fn tensor_reshape_preserves_content(data in prop::collection::vec(-10.0f32..10.0, 12)) {
        let t = Tensor::from_vec(data, &[3, 4]);
        let r = t.reshaped(&[2, 6]).reshaped(&[12]).reshaped(&[3, 4]);
        prop_assert_eq!(t.data(), r.data());
        prop_assert_eq!(t.sum(), r.sum());
    }
}
