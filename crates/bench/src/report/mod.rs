//! Plain-text reporting utilities for the MAD-Max experiment harness:
//! aligned tables (paper tables), horizontal/stacked bar charts (paper
//! figures), and two-stream ASCII timelines (Fig. 6). Everything renders
//! to `String` so experiment binaries can both print and persist results.

mod chart;
mod table;
mod timeline;

pub use chart::{bar_chart, stacked_bars, Bar, Segment};
pub use table::Table;
pub use timeline::{render as render_timeline, TimelineOp};

/// Formats a heading banner used by every experiment binary.
pub fn heading(title: &str) -> String {
    let line = "=".repeat(title.chars().count().max(8));
    format!("{line}\n{title}\n{line}\n")
}

#[cfg(test)]
mod tests {
    #[test]
    fn heading_wraps_title() {
        let h = super::heading("Table I");
        assert_eq!(h.lines().count(), 3);
        assert!(h.contains("Table I"));
    }
}
