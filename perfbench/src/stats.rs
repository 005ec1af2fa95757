//! Small measurement helpers: quantiles, the output checker, a parser
//! for the Prometheus text `GET /metrics` serves, and host provenance.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;
use std::time::{Duration, Instant};

/// Nearest-rank quantile of an ascending slice (0 for an empty one).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Mean of the middle half of unsorted values. The host alternates
/// between a fast and a slow regime for seconds at a time; a median of
/// samples from both jumps from one regime to the other as their shares
/// cross one half, while this moves smoothly with the shares and still
/// ignores a stray stall.
pub fn mid_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let middle = &sorted[n / 4..n - n / 4];
    middle.iter().sum::<f64>() / middle.len().max(1) as f64
}

/// Samples strictly above `value` in an ascending slice.
pub fn beyond(sorted: &[f64], value: f64) -> usize {
    sorted.len() - sorted.partition_point(|&v| v <= value)
}

/// Bit-for-bit equality of served logits against the reference.
pub fn logits_match(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// The `logits` array of an eb-serve predict response body.
pub fn parse_logits(body: &str) -> Option<Vec<f32>> {
    let start = body.find("\"logits\":[")? + "\"logits\":[".len();
    let end = start + body[start..].find(']')?;
    body[start..end]
        .split(',')
        .map(|t| t.trim().parse().ok())
        .collect()
}

/// Sleeps until `target`, spinning through the last stretch so timer
/// slack does not show up as generator lag.
pub fn sleep_until(target: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    let now = Instant::now();
    if target > now + SPIN {
        std::thread::sleep(target - now - SPIN);
    }
    while Instant::now() < target {
        std::hint::spin_loop();
    }
}

/// Completions counted over measured windows of a closed loop: each
/// window runs from a completion instant to a completion instant, so a
/// rate over it is not biased by where batches happen to end.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    completions: f64,
    secs: f64,
}

impl Window {
    /// The window from the `skip`-th completion to the last one at or
    /// before `end`.
    pub fn between(mut done: Vec<Instant>, skip: usize, end: Instant) -> Self {
        done.retain(|&d| d <= end);
        done.sort_unstable();
        match (done.get(skip.saturating_sub(1)), done.last()) {
            (Some(&a), Some(&b)) if b > a => Self {
                completions: (done.len() - skip) as f64,
                secs: (b - a).as_secs_f64(),
            },
            _ => Self::default(),
        }
    }

    pub fn add(&mut self, other: &Window) {
        self.completions += other.completions;
        self.secs += other.secs;
    }

    /// Completions per second (0 for an empty window).
    pub fn rate(&self) -> f64 {
        if self.secs > 0.0 {
            self.completions / self.secs
        } else {
            0.0
        }
    }
}

/// One parsed `GET /metrics` scrape: every sample line, keyed by its
/// series (`name{labels}`).
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    series: BTreeMap<String, f64>,
}

/// A cumulative histogram read from a scrape: `(le, count ≤ le)` pairs
/// in ascending `le`, plus the sum and count.
#[derive(Debug, Clone, Default)]
pub struct PromHist {
    buckets: Vec<(f64, f64)>,
    sum: f64,
    count: f64,
}

impl Scrape {
    pub fn parse(text: &str) -> Self {
        let series = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .filter_map(|l| {
                let (key, value) = l.rsplit_once(' ')?;
                Some((key.to_owned(), value.parse().ok()?))
            })
            .collect();
        Self { series }
    }

    /// Sum of every series of family `name` (all label sets).
    pub fn total(&self, name: &str) -> f64 {
        self.series
            .iter()
            .filter(|(k, _)| {
                k.as_str() == name || k.strip_prefix(name).is_some_and(|r| r.starts_with('{'))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// Histogram `name` for the exact label set `labels` (rendered as
    /// `a="x",b="y"`).
    pub fn hist(&self, name: &str, labels: &str) -> PromHist {
        let prefix = format!("{name}_bucket{{{labels},le=\"");
        let mut buckets: Vec<(f64, f64)> = self
            .series
            .iter()
            .filter_map(|(k, &v)| {
                let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((le, v))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let get = |suffix: &str| {
            self.series
                .get(&format!("{name}_{suffix}{{{labels}}}"))
                .copied()
                .unwrap_or(0.0)
        };
        PromHist {
            buckets,
            sum: get("sum"),
            count: get("count"),
        }
    }
}

impl PromHist {
    /// This histogram minus an earlier scrape of the same series: the
    /// observations made between the two scrapes.
    pub fn since(&self, earlier: &PromHist) -> PromHist {
        let before = |le: f64| {
            earlier
                .buckets
                .iter()
                .find(|b| b.0 == le)
                .map_or(0.0, |b| b.1)
        };
        PromHist {
            buckets: self
                .buckets
                .iter()
                .map(|&(le, c)| (le, c - before(le)))
                .collect(),
            sum: self.sum - earlier.sum,
            count: self.count - earlier.count,
        }
    }

    /// Adds another diff of the same series (bucket bounds must match,
    /// or `self` must be empty).
    pub fn add(&mut self, other: &PromHist) {
        if self.buckets.is_empty() {
            self.buckets = other.buckets.iter().map(|&(le, _)| (le, 0.0)).collect();
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            mine.1 += theirs.1;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    pub fn mean(&self) -> f64 {
        if self.count > 0.0 {
            self.sum / self.count
        } else {
            0.0
        }
    }

    /// Quantile by linear interpolation inside the bucket that holds it
    /// (Prometheus `histogram_quantile`); the open top bucket reports
    /// its lower bound.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count <= 0.0 {
            return 0.0;
        }
        let rank = q * self.count;
        let (mut lo, mut below) = (0.0, 0.0);
        for &(le, cum) in &self.buckets {
            if cum >= rank {
                if le.is_infinite() || cum <= below {
                    return lo;
                }
                return lo + (le - lo) * (rank - below) / (cum - below);
            }
            (lo, below) = (le, cum);
        }
        lo
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Trimmed stdout of a command, or `"unknown"` when it cannot run.
fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where and on what a result was measured, as a JSON object.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        concat!(
            r#"{{"workload":{},"seed":{},"seconds":{},"trace":{},"nproc":{},"#,
            r#""cpu":{},"rustc":{},"git_rev":{}}}"#
        ),
        json_str(workload),
        seed,
        seconds,
        trace,
        nproc,
        json_str(&cpu),
        json_str(&command_output("rustc", &["-V"])),
        json_str(&command_output("git", &["rev-parse", "HEAD"])),
    )
}

/// Peak resident memory (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_rejects_a_wrong_logit_vector() {
        let want = [0.5f32, -1.25, 3.0];
        let body = r#"{"model":"demo","class":2,"logits":[0.5,-1.25,3.0]}"#;
        assert!(logits_match(&parse_logits(body).unwrap(), &want));
        // One flipped low bit, one dropped logit, one wrong value: all fail.
        let wrong = [0.5f32, f32::from_bits((-1.25f32).to_bits() ^ 1), 3.0];
        assert!(!logits_match(&wrong, &want));
        assert!(!logits_match(&want[..2], &want));
        let bad = parse_logits(r#"{"logits":[0.5,-1.25,3.5]}"#).unwrap();
        assert!(!logits_match(&bad, &want));
        assert!(parse_logits(r#"{"error":"overloaded"}"#).is_none());
    }

    #[test]
    fn quantiles_and_tail_counts() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 500.0);
        assert_eq!(quantile(&v, 0.99), 990.0);
        assert_eq!(beyond(&v, quantile(&v, 0.99)), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mid_mean(&[100.0, 8.0, 13.0, 8.0, 13.0, 13.0, 8.0, 0.0]), 10.5);
        assert_eq!(mid_mean(&[]), 0.0);
    }

    #[test]
    fn scrape_histograms_diff_and_interpolate() {
        let before = Scrape::parse(concat!(
            "# TYPE h histogram\n",
            "h_bucket{model=\"m\",le=\"10\"} 0\n",
            "h_bucket{model=\"m\",le=\"20\"} 0\n",
            "h_bucket{model=\"m\",le=\"+Inf\"} 0\n",
            "h_sum{model=\"m\"} 0\n",
            "h_count{model=\"m\"} 0\n",
            "c_total{class=\"a\"} 2\n",
            "c_total{class=\"b\"} 3\n",
        ));
        let after = Scrape::parse(concat!(
            "h_bucket{model=\"m\",le=\"10\"} 4\n",
            "h_bucket{model=\"m\",le=\"20\"} 8\n",
            "h_bucket{model=\"m\",le=\"+Inf\"} 8\n",
            "h_sum{model=\"m\"} 100\n",
            "h_count{model=\"m\"} 8\n",
        ));
        assert_eq!(before.total("c_total"), 5.0);
        let h = after
            .hist("h", "model=\"m\"")
            .since(&before.hist("h", "model=\"m\""));
        assert_eq!(h.count, 8.0);
        assert_eq!(h.mean(), 12.5);
        assert_eq!(h.quantile(0.5), 10.0);
        assert_eq!(h.quantile(0.75), 15.0);
    }
}
