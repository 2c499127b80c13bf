//! Measurement primitives: the best-quartile estimator, quartiles as
//! Python's `statistics.quantiles` gives them, process CPU time and
//! peak RSS, the reference kernels that measure the box's momentary
//! speed, and the in-memory span recorder of the traced run.

use std::time::Instant;

/// Mean of the smallest ⌈n/4⌉ values: the run's value for a timing
/// series. On a shared box slow laps come in bursts, so the fast tail is
/// what repeats between runs (README.md, "Why best-quartile").
pub fn best_quartile(series: &[f64]) -> f64 {
    assert!(!series.is_empty(), "empty lap series");
    let mut v = series.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len().div_ceil(4);
    v[..k].iter().sum::<f64>() / k as f64
}

/// `(q1, median, q3)` by the exclusive method, matching Python's
/// `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |p: f64| {
        if n == 1 {
            return v[0];
        }
        let pos = (p * (n + 1) as f64).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(n);
        v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
    };
    (at(0.25), at(0.5), at(0.75))
}

/// The `q`-quantile of a latency sample by nearest rank (the value with
/// `⌈q·n⌉ − 1` samples below it).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `(median − best-quartile) / best-quartile` of a lap series: how far
/// the typical lap sat above the quiet ones.
pub fn lap_spread(series: &[f64]) -> f64 {
    let bq = best_quartile(series);
    (quartiles(series).1 - bq) / bq
}

/// Laps within 5 % of the fastest.
pub fn quiet_laps(series: &[f64]) -> usize {
    let fastest = series.iter().copied().fold(f64::INFINITY, f64::min);
    series.iter().filter(|&&x| x <= fastest * 1.05).count()
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Process-wide resource use so far.
pub struct Usage {
    /// User + system CPU seconds over all threads, live and joined.
    pub cpu_s: f64,
    /// High-water resident set size in MB.
    pub peak_rss_mb: f64,
}

/// Reads `getrusage(RUSAGE_SELF)`.
pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the layout
    // the 64-bit Linux ABI defines; the call writes only inside it.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        peak_rss_mb: ru.maxrss_kb as f64 / 1024.0,
    }
}

/// Resets the kernel's RSS high-water mark so `peak_rss_mb` covers the
/// laps and not input generation. Best effort: where `/proc` refuses the
/// write the peak simply includes set-up, on every run alike.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Working sets of the reference kernel: one inside L2, one far past it.
const REFERENCE_NEAR_WORDS: usize = 32 * 1024;
const REFERENCE_FAR_WORDS: usize = 4 * 1024 * 1024;
const REFERENCE_REPS: usize = 3;

/// The harness's own fixed reference kernels: (near) an integer mix, a
/// data-dependent walk and a floating-point recurrence over 256 KB, and
/// (far) a data-dependent walk over 32 MB, which only the shared last
/// level cache and memory serve. They call nothing of the repository, so
/// a change to the program cannot move them; only the box's momentary
/// speed does.
pub struct Reference {
    near: Vec<u64>,
    far: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

fn xorshift_fill(n: usize) -> Vec<u64> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect()
}

impl Reference {
    /// Fills the working sets.
    pub fn new() -> Self {
        Self {
            near: xorshift_fill(REFERENCE_NEAR_WORDS),
            far: xorshift_fill(REFERENCE_FAR_WORDS),
        }
    }

    fn near_once(&mut self) -> f64 {
        let t = Instant::now();
        let mask = REFERENCE_NEAR_WORDS - 1;
        let (mut at, mut acc) = (0usize, 0.0f64);
        for pass in 0..48 {
            for i in 0..REFERENCE_NEAR_WORDS / 4 {
                let w = self.near[at];
                at = (w as usize ^ i ^ pass) & mask;
                acc += (w >> 40) as f64 * 1e-6;
            }
            let mut sum = 0.0f64;
            for &w in &self.near {
                sum = sum * 0.999 + (w & 0xFFFF) as f64;
            }
            acc += sum;
            self.near[at] ^= acc.to_bits() >> 3;
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64()
    }

    fn far_once(&mut self) -> f64 {
        let t = Instant::now();
        let mask = REFERENCE_FAR_WORDS - 1;
        // Four independent chains, as a scan or a gather keeps several
        // misses in flight.
        let mut at = [0usize, 1, 2, 3];
        let mut acc = 0u64;
        for i in 0..120_000usize {
            for a in &mut at {
                let w = self.far[*a];
                acc = acc.wrapping_add(w);
                *a = (w as usize ^ i) & mask;
            }
        }
        self.far[at[0]] ^= acc >> 5;
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64()
    }

    /// MB of this process's RSS the working sets hold, always resident:
    /// what the harness subtracts from the peak it reports.
    pub fn resident_mb(&self) -> f64 {
        ((self.near.len() + self.far.len()) * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
    }

    /// Seconds the near and the far kernel take now (fastest of a few).
    pub fn time(&mut self) -> (f64, f64) {
        let mut best = (f64::INFINITY, f64::INFINITY);
        for _ in 0..REFERENCE_REPS {
            best.0 = best.0.min(self.near_once());
            best.1 = best.1.min(self.far_once());
        }
        best
    }
}

/// What the reference kernels take on this box when its neighbours are
/// quiet. They only fix the unit: a timing scaled by [`box_scale`] reads
/// in seconds of the quiet box.
const NOMINAL_NEAR_S: f64 = 0.0050;
const NOMINAL_FAR_S: f64 = 0.0055;

/// Share of the far kernel in the scale. Over 75 runs of unchanged code
/// across a fast, a CPU-slowed and a memory-slowed period of the box, a
/// quarter left the least drift on the four workloads together (0 leaves
/// the text workloads 11–13 % apart between periods, a half the serve
/// workload 15 %); README.md has the numbers.
const FAR_SHARE: f64 = 0.25;

/// The factor that takes a duration measured during a run to the quiet
/// box: nominal over measured reference time, the weighted geometric mean
/// of the two kernels, each reduced over the run's samples like a lap
/// series. The box's speed moves by tens of percent over minutes with
/// what its neighbours do, for the reference kernels and the program
/// alike; dividing it out is what lets two runs of the same code agree.
pub fn box_scale(samples: &[(f64, f64)]) -> f64 {
    let near = best_quartile(&samples.iter().map(|s| s.0).collect::<Vec<_>>());
    let far = best_quartile(&samples.iter().map(|s| s.1).collect::<Vec<_>>());
    (NOMINAL_NEAR_S / near).powf(1.0 - FAR_SHARE) * (NOMINAL_FAR_S / far).powf(FAR_SHARE)
}

/// One recorded span. `parent` indexes [`Tracer::spans`].
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `corpus.vocab`.
    pub name: &'static str,
    /// Lap the span belongs to.
    pub lap: u32,
    /// Enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// Token returned by [`Tracer::begin`]; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<u32>);

/// Span recorder: kept in memory, written out when the run ends. While
/// switched off, `begin`/`end` read no clock and store nothing.
pub struct Tracer {
    on: bool,
    lap: u32,
    origin: Instant,
    stack: Vec<u32>,
    spans: Vec<SpanRec>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer that starts switched off.
    pub fn new() -> Self {
        Self {
            on: false,
            lap: 0,
            origin: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Switches recording for the lap about to run.
    pub fn start_lap(&mut self, lap: u32, traced: bool) {
        self.on = traced;
        self.lap = lap;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            lap: self.lap,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, open: Open) {
        if let Open(Some(id)) = open {
            let end_ns = self.now_ns();
            self.spans[id as usize].end_ns = end_ns;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Seconds spent in spans called `name`, per traced lap, in lap order.
    pub fn per_lap_total(&self, name: &str) -> Vec<f64> {
        self.per_lap_durations(name)
            .iter()
            .map(|d| d.iter().sum())
            .collect()
    }

    /// Sorted durations in seconds of spans called `name`, per traced lap.
    pub fn per_lap_durations(&self, name: &str) -> Vec<Vec<f64>> {
        let mut laps: Vec<(u32, Vec<f64>)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let secs = (s.end_ns - s.start_ns) as f64 * 1e-9;
            match laps.last_mut() {
                Some((lap, d)) if *lap == s.lap => d.push(secs),
                _ => laps.push((s.lap, vec![secs])),
            }
        }
        laps.into_iter()
            .map(|(_, mut d)| {
                d.sort_by(f64::total_cmp);
                d
            })
            .collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"lap\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.lap, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_quartile_is_mean_of_fastest_quarter() {
        let laps = [5.0, 1.0, 3.0, 2.0, 9.0, 4.0, 8.0, 7.0];
        assert_eq!(best_quartile(&laps), 1.5);
        assert_eq!(best_quartile(&[2.0]), 2.0);
        // ⌈5/4⌉ = 2 laps.
        assert_eq!(best_quartile(&[4.0, 2.0, 6.0, 8.0, 10.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
    }

    #[test]
    fn nearest_rank_p99_of_1000_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.99), 990.0);
        assert_eq!(nearest_rank(&v, 0.5), 500.0);
    }

    #[test]
    fn tracer_nests_and_groups_by_lap() {
        let mut t = Tracer::new();
        t.start_lap(0, false);
        let o = t.begin("outer");
        t.end(o);
        assert!(t.spans().is_empty(), "an untraced lap records nothing");
        for lap in [1, 3] {
            t.start_lap(lap, true);
            let outer = t.begin("outer");
            for _ in 0..2 {
                let inner = t.begin("inner");
                t.end(inner);
            }
            t.end(outer);
        }
        assert_eq!(t.spans().len(), 6);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[3].parent, None);
        assert_eq!(t.per_lap_total("inner").len(), 2);
        assert_eq!(t.per_lap_durations("inner")[1].len(), 2);
    }

    #[test]
    fn box_scale_is_one_at_nominal_speed_and_below_one_on_a_fast_box() {
        let nominal = [(NOMINAL_NEAR_S, NOMINAL_FAR_S); 4];
        assert!((box_scale(&nominal) - 1.0).abs() < 1e-12);
        // References twice as slow: durations are halved to compensate.
        let slow = [(2.0 * NOMINAL_NEAR_S, 2.0 * NOMINAL_FAR_S); 4];
        assert!((box_scale(&slow) - 0.5).abs() < 1e-12);
        // Memory alone twice as slow: a quarter of that, in the exponent.
        let mem = [(NOMINAL_NEAR_S, 2.0 * NOMINAL_FAR_S); 4];
        assert!((box_scale(&mem) - 0.5f64.powf(FAR_SHARE)).abs() < 1e-12);
        let mut r = Reference::new();
        let (near, far) = r.time();
        assert!(near > 0.0 && far > 0.0);
    }

    #[test]
    fn usage_reads_nonzero() {
        let u = usage();
        assert!(u.peak_rss_mb > 1.0, "{}", u.peak_rss_mb);
        assert!(u.cpu_s >= 0.0);
    }
}
