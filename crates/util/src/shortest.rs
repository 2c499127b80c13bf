//! The shortest decimal text that reads back to an `f32`, written as
//! `{}` writes it but without `core::fmt`.
//!
//! [`push_f32`] finds the digits with Ryū (Adams, "Ryū: fast
//! float-to-string conversion", PLDI 2018): the interval of decimals
//! that round to the float is scaled by a power of 5 from a table of
//! 64-bit multipliers, and digits are dropped from its ends while both
//! ends still differ, leaving the fewest digits inside it and, of those, the
//! nearest to the float. One step differs from the paper's: an exact
//! tie (the float's exact decimal ends in a 5 just past the last digit
//! kept) rounds up, as `{}` rounds it, not to even. The two tables
//! (31 + 47 `u64`s) are built at compile time from `u128` powers of 5.

/// Fraction bits of an `f32`.
const MANTISSA_BITS: u32 = 23;
/// Its exponent bias.
const BIAS: i32 = 127;
/// Bits of [`POW5_INV_SPLIT`]'s entries past the leading one of `5^-i`.
const POW5_INV_BITCOUNT: i32 = 59;
/// Bits of [`POW5_SPLIT`]'s entries.
const POW5_BITCOUNT: i32 = 61;

/// Bits of `x` up to its leading one.
const fn bit_len(x: u128) -> i32 {
    128 - x.leading_zeros() as i32
}

/// `⌊2^j / 5^i⌋ + 1` with `j = bit_len(5^i) − 1 + POW5_INV_BITCOUNT`:
/// `5^-i` rounded up to 60 significant bits. `j` reaches 128 at
/// `i = 30`; `⌊2^128 / 5^i⌋` is `⌊(2^128 − 1) / 5^i⌋` there, since an
/// odd `5^i > 1` does not divide `2^128`.
const POW5_INV_SPLIT: [u64; 31] = {
    let mut table = [0; 31];
    let mut i = 0;
    while i < table.len() {
        let p = 5u128.pow(i as u32);
        let j = bit_len(p) - 1 + POW5_INV_BITCOUNT;
        let q = if j < 128 { (1 << j) / p } else { u128::MAX / p };
        table[i] = q as u64 + 1;
        i += 1;
    }
    table
};

/// `5^i` cut to its leading [`POW5_BITCOUNT`] bits (shifted left where
/// it has fewer).
const POW5_SPLIT: [u64; 47] = {
    let mut table = [0; 47];
    let mut i = 0;
    while i < table.len() {
        let p = 5u128.pow(i as u32);
        let len = bit_len(p);
        table[i] = if len > POW5_BITCOUNT {
            (p >> (len - POW5_BITCOUNT)) as u64
        } else {
            (p << (POW5_BITCOUNT - len)) as u64
        };
        i += 1;
    }
    table
};

/// `⌈log2 5^e⌉` (1 at `e = 0`), for `0 ≤ e ≤ 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10 2^e⌋`, for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10 5^e⌋`, for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// True if `5^p` divides `value` (nonzero).
fn multiple_of_pow5(mut value: u32, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m · factor / 2^shift⌋`.
fn mul_shift(m: u32, factor: u64, shift: i32) -> u32 {
    ((u128::from(m) * u128::from(factor)) >> shift) as u32
}

/// The shortest decimal `digits · 10^exponent` that reads back to the
/// positive finite float of these fields, nearest to it among those,
/// exact ties rounded up.
fn shortest(ieee_mantissa: u32, ieee_exponent: u32) -> (u32, i32) {
    // The float is m2 · 2^e2, with two more bits of exponent so the
    // interval's ends are integers too.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // An even mantissa reads back from its interval's ends too.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    let mp = 4 * m2 + 2;
    // The gap below is half as wide at a power of 2.
    let mm_shift = u32::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let mm = 4 * m2 - 1 - mm_shift;

    // The interval in decimal, scaled so that it holds integers.
    let (mut vr, mut vp, mut vm);
    let e10;
    // True if the interval's low end is an exact decimal: its dropped
    // digits are then all zero and the end itself is a candidate.
    let mut vm_trailing_zeros = false;
    let mut last_removed = 0;
    if e2 >= 0 {
        let q = log10_pow2(e2);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5_bits(q as i32) - 1;
        let i = -e2 + q as i32 + k;
        let factor = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, factor, i);
        vp = mul_shift(mp, factor, i);
        vm = mul_shift(mm, factor, i);
        if q != 0 && (vp - 1) / 10 <= vm / 10 {
            // The loop below removes no digit, but the rounding needs
            // the one dropped by scaling by 10^q rather than 10^(q-1).
            let l = POW5_INV_BITCOUNT + pow5_bits(q as i32 - 1) - 1;
            let factor = POW5_INV_SPLIT[q as usize - 1];
            last_removed = mul_shift(mv, factor, -e2 + q as i32 - 1 + l) % 10;
        }
        // At most one of mp, mv and mm is a multiple of 5; mv's being one
        // changes nothing below.
        if q <= 9 && mv % 5 != 0 {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mm, q);
            } else {
                vp -= u32::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let factor = POW5_SPLIT[i as usize];
        vr = mul_shift(mv, factor, j);
        vp = mul_shift(mp, factor, j);
        vm = mul_shift(mm, factor, j);
        if q != 0 && (vp - 1) / 10 <= vm / 10 {
            let j = q as i32 - 1 - (pow5_bits(i + 1) - POW5_BITCOUNT);
            last_removed = mul_shift(mv, POW5_SPLIT[i as usize + 1], j) % 10;
        }
        if q <= 1 {
            // mm has a trailing zero bit iff mm_shift is 1; mp = 4·m2 + 2
            // has one.
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter decimal.
    // Ryū rounds an exact tie (the dropped digits a 5 and zeros) to even;
    // `{}` rounds it up, so that step is left out and `last_removed >= 5`
    // decides every tie.
    let mut removed = 0;
    let output = if vm_trailing_zeros {
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm % 10 == 0;
            last_removed = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm % 10 == 0 {
                last_removed = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        // vr = vm is outside the interval unless its end is accepted and
        // exact.
        let outside = vr == vm && (!accept_bounds || !vm_trailing_zeros);
        vr + u32::from(outside || last_removed >= 5)
    } else {
        while vp / 10 > vm / 10 {
            last_removed = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u32::from(vr == vm || last_removed >= 5)
    };
    (output, e10 + removed)
}

/// Two ASCII digits of each number below 100.
const PAIRS: [u8; 200] = {
    let mut table = [0; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// Appends `x` as `format!("{x}")` writes it: the shortest decimal that
/// reads back to `x` (the nearest of them, an exact tie rounded up),
/// never with an exponent — `0.000123`, `1`, `1000000000000`, `-0`,
/// `NaN`, `inf`, `-inf`.
pub fn push_f32(out: &mut Vec<u8>, x: f32) {
    let bits = x.to_bits();
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) & 0xff;
    if x.is_nan() {
        out.extend_from_slice(b"NaN");
        return;
    }
    if bits >> 31 != 0 {
        out.push(b'-');
    }
    if ieee_exponent == 0xff {
        out.extend_from_slice(b"inf");
        return;
    }
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out.push(b'0');
        return;
    }
    let (mut digits, exponent) = shortest(ieee_mantissa, ieee_exponent);
    // At most nine digits: nine read back to any `f32`.
    let len = match digits {
        0..=9 => 1,
        10..=99 => 2,
        100..=999 => 3,
        1_000..=9_999 => 4,
        10_000..=99_999 => 5,
        100_000..=999_999 => 6,
        1_000_000..=9_999_999 => 7,
        10_000_000..=99_999_999 => 8,
        _ => 9,
    };
    let mut text = [0u8; 9];
    let mut end = len;
    while digits >= 10 {
        let pair = 2 * (digits % 100) as usize;
        digits /= 100;
        text[end - 2..end].copy_from_slice(&PAIRS[pair..pair + 2]);
        end -= 2;
    }
    if end == 1 {
        text[0] = b'0' + digits as u8;
    }
    let text = &text[..len];
    // `point` digits stand before the decimal point; where it is not
    // positive the text is `0.`, `-point` zeros, then the digits.
    let point = len as i32 + exponent;
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + (-point) as usize, b'0');
        out.extend_from_slice(text);
    } else if (point as usize) < len {
        let (int, fraction) = text.split_at(point as usize);
        out.extend_from_slice(int);
        out.push(b'.');
        out.extend_from_slice(fraction);
    } else {
        out.extend_from_slice(text);
        out.resize(out.len() + point as usize - len, b'0');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `push_f32` against `{}` on one bit pattern.
    fn check(bits: u32, out: &mut Vec<u8>) {
        let x = f32::from_bits(bits);
        out.clear();
        push_f32(out, x);
        let want = format!("{x}");
        assert_eq!(std::str::from_utf8(out).unwrap(), want, "bits {bits:#010x}");
    }

    #[test]
    fn the_tables_hold_the_reference_entries() {
        // Entries of the reference tables, recomputed with big integers.
        assert_eq!(POW5_INV_SPLIT[0], 576_460_752_303_423_489);
        assert_eq!(POW5_INV_SPLIT[1], 461_168_601_842_738_791);
        assert_eq!(POW5_INV_SPLIT[30], 365_375_409_332_725_730);
        assert_eq!(POW5_SPLIT[0], 1_152_921_504_606_846_976);
        assert_eq!(POW5_SPLIT[1], 1_441_151_880_758_558_720);
        assert_eq!(POW5_SPLIT[46], 2_019_483_917_365_790_221);
    }

    #[test]
    fn push_f32_is_display_on_strided_patterns_and_every_exponents_ends() {
        let mut out = Vec::new();
        for bits in (0..=u32::MAX).step_by(997) {
            check(bits, &mut out);
        }
        // The first and last 64 mantissas of every exponent, both signs.
        for sign in [0, 1u32 << 31] {
            for exponent in 0..=0xffu32 {
                for m in (0..64).chain((1 << MANTISSA_BITS) - 64..1 << MANTISSA_BITS) {
                    check(sign | exponent << MANTISSA_BITS | m, &mut out);
                }
            }
        }
    }

    #[test]
    fn an_exact_tie_rounds_up_as_display_does() {
        let mut out = Vec::new();
        push_f32(&mut out, f32::from_bits(0x40bf_2000));
        assert_eq!(out, b"5.9726563");
        assert_eq!(f64::from(f32::from_bits(0x40bf_2000)), 5.972_656_25);
    }

    #[test]
    fn push_f32_lays_out_every_class_as_display() {
        let mut out = Vec::new();
        for (x, want) in [
            (0.0, "0"),
            (-0.0, "-0"),
            (1.0, "1"),
            (-1.5, "-1.5"),
            (100.0, "100"),
            (1e7, "10000000"),
            (1e-5, "0.00001"),
            (0.1, "0.1"),
            (f32::MAX, "340282350000000000000000000000000000000"),
            (
                f32::from_bits(1),
                "0.000000000000000000000000000000000000000000001",
            ),
            (f32::NAN, "NaN"),
            (-f32::NAN, "NaN"),
            (f32::INFINITY, "inf"),
            (f32::NEG_INFINITY, "-inf"),
        ] {
            out.clear();
            push_f32(&mut out, x);
            assert_eq!(std::str::from_utf8(&out).unwrap(), want);
            assert_eq!(format!("{x}"), want);
        }
    }

    #[test]
    #[ignore = "about 5 minutes on two cores: every f32 bit pattern"]
    fn push_f32_is_display_on_every_f32() {
        let workers = 2u64;
        let span = (1u64 << 32) / workers;
        let (checked, longest) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        let mut out = Vec::new();
                        let mut want = String::new();
                        let mut longest = 0;
                        for bits in w * span..(w + 1) * span {
                            let x = f32::from_bits(bits as u32);
                            out.clear();
                            push_f32(&mut out, x);
                            want.clear();
                            std::fmt::Write::write_fmt(&mut want, format_args!("{x}")).unwrap();
                            assert_eq!(out, want.as_bytes(), "bits {bits:#010x}");
                            longest = longest.max(out.len());
                        }
                        (span, longest)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .fold((0, 0), |(n, l), (m, k)| (n + m, l.max(k)))
        });
        assert_eq!(checked, 1 << 32);
        // `save_text` leaves 64 bytes a field; no text comes near it.
        assert!(longest < 50, "{longest}");
    }
}
