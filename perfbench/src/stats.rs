//! Sample statistics shared by every workload: percentiles, the tail
//! percentile a sample supports, open-loop latency accounting and the
//! metric-name rule.

/// Percentiles a timing may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0..=100) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (sorts a copy).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// The highest of p99.9, p99, p90 and p50 that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it in a sample of `n`, or `None`
/// when even the median lacks that support.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&q| {
        let beyond = n as f64 * (100.0 - q) / 100.0;
        beyond + 1e-9 >= TAIL_MIN_BEYOND as f64
    })
}

/// When request `k` of an open-loop stream at `rate` per second is due,
/// in nanoseconds after the stream starts.
#[must_use]
pub fn due_ns(k: u64, rate: f64) -> u64 {
    (k as f64 * 1e9 / rate) as u64
}

/// One open-loop request's timeline, in nanoseconds on a common clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopTimes {
    /// When the schedule said to send it.
    pub due: u64,
    /// When the generator was free to send it: the due time, or later if
    /// an earlier write was still blocked by the server not reading.
    pub ready: u64,
    /// When the generator actually sent it.
    pub sent: u64,
    /// When its response arrived.
    pub recv: u64,
}

impl OpenLoopTimes {
    /// Latency charged to the system: from the due time, so a stall that
    /// delays later sends is counted against every request it delayed.
    #[must_use]
    pub fn latency_ns(&self) -> u64 {
        self.recv.saturating_sub(self.due)
    }

    /// How late the generator itself ran: time blocked by the server's
    /// backpressure is the system's, not the generator's.
    #[must_use]
    pub fn late_ns(&self) -> u64 {
        self.sent.saturating_sub(self.ready.max(self.due))
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// letters, digits, `_`, `.` and `-`, starting with a letter or digit.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        // 1000 requests/s: one due every millisecond.
        let due: Vec<u64> = (0..4).map(|k| due_ns(k, 1000.0)).collect();
        assert_eq!(due, vec![0, 1_000_000, 2_000_000, 3_000_000]);
        // The generator stalls 2.5 ms before sending request 0, then
        // sends the backlog at once; each answer takes 100 µs.
        let sent = [2_500_000u64, 2_500_000, 2_500_000, 3_000_000];
        let times: Vec<OpenLoopTimes> = due
            .iter()
            .zip(sent)
            .map(|(&due, sent)| OpenLoopTimes {
                due,
                ready: due,
                sent,
                recv: sent + 100_000,
            })
            .collect();
        let latency: Vec<u64> = times.iter().map(OpenLoopTimes::latency_ns).collect();
        let late: Vec<u64> = times.iter().map(OpenLoopTimes::late_ns).collect();
        // The stall is charged to every request it delayed, not hidden
        // as if each had been sent on time.
        assert_eq!(latency, vec![2_600_000, 1_600_000, 600_000, 100_000]);
        assert_eq!(late, vec![2_500_000, 1_500_000, 500_000, 0]);

        // Now the server stops reading: a write blocks from 1.0 to
        // 2.4 ms, and the generator sends request 2 at 2.45 ms. The
        // latency still counts from 2.0 ms, but only 50 µs of the delay
        // is the generator's own lateness.
        let blocked = OpenLoopTimes {
            due: 2_000_000,
            ready: 2_400_000,
            sent: 2_450_000,
            recv: 2_550_000,
        };
        assert_eq!(blocked.latency_ns(), 550_000);
        assert_eq!(blocked.late_ns(), 50_000);

        // A response can never be charged negative time.
        let early = OpenLoopTimes {
            due: 10,
            ready: 10,
            sent: 5,
            recv: 8,
        };
        assert_eq!(early.latency_ns(), 0);
        assert_eq!(early.late_ns(), 0);
    }

    #[test]
    fn metric_names_follow_the_rule() {
        for ok in [
            "p50_us",
            "setup_s",
            "telemetry.stage_ns.recv",
            "protocol.parse_us.batch",
            "0-start",
            &"a".repeat(64),
        ] {
            assert!(valid_metric_name(ok), "{ok} should be valid");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "ümlaut",
            &"a".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad} should be invalid");
        }
    }
}
