//! Table formatting for experiment output.

use crate::experiments::ExperimentRow;

/// Format a throughput value the way the paper's figures scale it
/// (transactions per second, with thousands separators).
pub fn format_throughput(txn_per_sec: f64) -> String {
    let v = txn_per_sec.round() as u64;
    let s = v.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

/// Print a "threads vs. scheduler" throughput table: one row per worker
/// count, one column per scheduler — the textual equivalent of one panel of
/// Figure 3.
pub fn print_series_table(title: &str, rows: &[ExperimentRow]) {
    println!("\n== {title} ==");
    let mut schedulers: Vec<String> = Vec::new();
    for row in rows {
        if !schedulers.contains(&row.series) {
            schedulers.push(row.series.clone());
        }
    }
    let mut threads: Vec<usize> = rows.iter().map(|r| r.workers).collect();
    threads.sort_unstable();
    threads.dedup();

    print!("{:>8}", "threads");
    for s in &schedulers {
        print!("{s:>16}");
    }
    println!();
    for t in threads {
        print!("{t:>8}");
        for s in &schedulers {
            let cell = rows
                .iter()
                .find(|r| r.workers == t && &r.series == s)
                .map(|r| format_throughput(r.throughput))
                .unwrap_or_else(|| "-".to_string());
            print!("{cell:>16}");
        }
        println!();
    }
}

/// Render rows as a machine-readable CSV block (series,threads,throughput,
/// contention, imbalance), which EXPERIMENTS.md snapshots.
pub fn to_csv(rows: &[ExperimentRow]) -> String {
    let mut out = String::from("series,threads,throughput,contention_ratio,imbalance\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.0},{:.4},{:.3}\n",
            r.series, r.workers, r.throughput, r.contention_ratio, r.imbalance
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(series: &str, workers: usize, throughput: f64) -> ExperimentRow {
        ExperimentRow {
            series: series.to_string(),
            workers,
            throughput,
            contention_ratio: 0.01,
            imbalance: 1.0,
            completed: 100,
        }
    }

    #[test]
    fn throughput_formatting_adds_separators() {
        assert_eq!(format_throughput(1234567.4), "1,234,567");
        assert_eq!(format_throughput(999.6), "1,000");
        assert_eq!(format_throughput(12.0), "12");
        assert_eq!(format_throughput(0.0), "0");
    }

    #[test]
    fn csv_contains_every_row() {
        let rows = vec![row("adaptive", 2, 1000.0), row("fixed", 2, 900.0)];
        let csv = to_csv(&rows);
        assert!(csv.lines().count() == 3);
        assert!(csv.contains("adaptive,2,1000"));
        assert!(csv.contains("fixed,2,900"));
    }

    #[test]
    fn table_printing_does_not_panic() {
        let rows = vec![
            row("round-robin", 2, 500.0),
            row("adaptive", 2, 700.0),
            row("round-robin", 4, 800.0),
            row("adaptive", 4, 1200.0),
        ];
        print_series_table("smoke", &rows);
    }
}
