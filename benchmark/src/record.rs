//! The run record printed with every result, and the host and process
//! readings it needs.

use std::collections::HashMap;
use std::path::Path;
use std::process::Command;

/// Cumulative CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

pub fn cpu_times() -> Option<CpuTimes> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user and nice).
    Some(CpuTimes {
        steal: *fields.get(7)?,
        total: fields.iter().take(8).sum(),
    })
}

/// Share of all CPU time between two readings that the host stole.
pub fn steal_share(a: Option<CpuTimes>, b: Option<CpuTimes>) -> Option<f64> {
    let (a, b) = (a?, b?);
    let total = b.total.checked_sub(a.total)?;
    (total > 0).then(|| b.steal.saturating_sub(a.steal) as f64 / total as f64)
}

/// User + system CPU seconds a process has used so far.
pub fn cpu_seconds(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/stat"),
        None => "/proc/self/stat".to_string(),
    };
    let stat = std::fs::read_to_string(path).ok()?;
    // Fields after the parenthesized command name; utime and stime are
    // the 14th and 15th fields overall, in USER_HZ (100/s) ticks.
    let rest = stat.rsplit_once(')')?.1;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
    Some(ticks as f64 / 100.0)
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn vm_hwm_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Prometheus text exposition, each metric summed over its label sets.
pub fn scrape_totals(text: &str) -> HashMap<String, f64> {
    let mut totals = HashMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let name = series.split('{').next().unwrap_or(series);
        if let Ok(v) = value.parse::<f64>() {
            *totals.entry(name.to_string()).or_insert(0.0) += v;
        }
    }
    totals
}

/// The value of label `label` on info-style metric `metric`.
pub fn info_label(text: &str, metric: &str, label: &str) -> String {
    let prefix = format!("{metric}{{{label}=\"");
    text.lines()
        .find_map(|l| l.strip_prefix(&prefix)?.split('"').next())
        .unwrap_or("unknown")
        .to_string()
}

/// The checkout's git revision, or `none` outside a git work tree.
fn git_rev(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "none".into();
    }
    Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// Lines of Rust under `crates/*/src`.
fn src_lines(root: &Path) -> u64 {
    fn walk(dir: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .map(|e| {
                let path = e.path();
                if path.is_dir() {
                    walk(&path)
                } else if path.extension().is_some_and(|x| x == "rs") {
                    std::fs::read_to_string(&path).map_or(0, |s| s.lines().count() as u64)
                } else {
                    0
                }
            })
            .sum()
    }
    let Ok(crates) = std::fs::read_dir(root.join("crates")) else {
        return 0;
    };
    crates.flatten().map(|c| walk(&c.path().join("src"))).sum()
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// One JSON line describing where and how the result was measured.
/// `metrics_text` is an exposition from the system under test, whose
/// info gauges name the resolved oracle kernel, quantum backend and SAT
/// options.
pub fn record_line(
    root: &Path,
    workload: &str,
    seed: u64,
    metrics_text: &str,
    steal: Option<f64>,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fields = [
        ("workload", json_str(workload)),
        ("seed", seed.to_string()),
        ("nproc", nproc.to_string()),
        (
            "kernel",
            json_str(&info_label(metrics_text, "revmatch_kernel_info", "kernel")),
        ),
        (
            "quantum_backend",
            json_str(&info_label(
                metrics_text,
                "revmatch_quantum_backend_info",
                "backend",
            )),
        ),
        (
            "sat_opts",
            json_str(&info_label(metrics_text, "revmatch_sat_opts_info", "opts")),
        ),
        ("git_rev", json_str(&git_rev(root))),
        (
            "steal_share",
            steal.map_or("null".into(), |s| format!("{s:.4}")),
        ),
        ("src_lines", src_lines(root).to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("record {{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_totals_sum_label_sets() {
        let text = "# HELP x y\n# TYPE x counter\nrevmatch_shard_steals_total{shard=\"0\"} 3\n\
                    revmatch_shard_steals_total{shard=\"1\"} 4\nrevmatch_jobs_completed_total 9\n\
                    revmatch_kernel_info{kernel=\"wide256-avx2\"} 1\n";
        let t = scrape_totals(text);
        assert_eq!(t["revmatch_shard_steals_total"], 7.0);
        assert_eq!(t["revmatch_jobs_completed_total"], 9.0);
        assert_eq!(
            info_label(text, "revmatch_kernel_info", "kernel"),
            "wide256-avx2"
        );
        assert_eq!(
            info_label(text, "revmatch_sat_opts_info", "opts"),
            "unknown"
        );
    }
}
