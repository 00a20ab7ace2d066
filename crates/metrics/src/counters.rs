//! Per-policy scheduler-counter tables.
//!
//! Each substrate reports its counters as a name-keyed list — the runtime
//! through `numa_ws::PoolStats::counter_totals`, the simulator through a
//! list built from `nws_sim::Counters` — and [`counter_table`] renders one
//! row per policy, taking its column names from the first row. A counter
//! one substrate lacks is simply not in its list, so each table shows only
//! what its substrate measures.

use crate::table::Table;

/// Renders one row per `(row name, counters)` entry: a leading column
/// named `label`, then one column per counter, named after the first row's
/// counters.
///
/// # Panics
///
/// Panics if a later row names different counters (or orders them
/// differently) than the first.
pub fn counter_table(label: &str, rows: &[(&str, Vec<(&str, u64)>)]) -> Table {
    let names: Vec<&str> =
        rows.first().map_or_else(Vec::new, |(_, counters)| counters.iter().map(|c| c.0).collect());
    let mut table = Table::new(std::iter::once(label).chain(names.iter().copied()).collect());
    for (name, counters) in rows {
        assert!(
            counters.iter().map(|c| c.0).eq(names.iter().copied()),
            "row {name:?} must name the first row's counters"
        );
        let mut cells = vec![name.to_string()];
        cells.extend(counters.iter().map(|c| c.1.to_string()));
        table.row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_keyed_table_aligns_headers_and_cells() {
        let rows = [
            ("vanilla", vec![("steals", 1), ("mailbox_takes", 2222), ("push_failures", 333)]),
            ("numa-ws", vec![("steals", 0), ("mailbox_takes", 0), ("push_failures", 0)]),
        ];
        let rendered = counter_table("policy", &rows).to_string();
        let lines: Vec<&str> = rendered.lines().collect();
        let end = |line: &str, s: &str| line.find(s).expect("present") + s.len();
        assert!(lines[0].starts_with("policy "));
        // Cells right-align under the header of the counter they carry.
        for (name, cell) in [("steals", "1"), ("mailbox_takes", "2222"), ("push_failures", "333")] {
            assert_eq!(end(lines[0], name), end(lines[2], cell), "{name}");
        }
        assert!(lines[3].starts_with("numa-ws"));
    }

    #[test]
    #[should_panic(expected = "must name the first row's counters")]
    fn rows_must_name_the_same_counters() {
        counter_table("policy", &[("a", vec![("steals", 1)]), ("b", vec![("spawns", 1)])]);
    }

    #[test]
    fn table_accepts_counter_rows() {
        let rows = [("numa-ws", vec![("mailbox_takes", 2)])];
        let rendered = counter_table("policy", &rows).to_string();
        assert!(rendered.contains("numa-ws"));
        assert!(rendered.contains("mailbox_takes"));
        assert!(counter_table("policy", &[]).is_empty());
    }
}
