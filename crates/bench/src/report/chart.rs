//! Horizontal bar charts and stacked bars for terminal output — the
//! figure-shaped half of the experiment harness.

/// One bar: a label and a value (with an optional annotation).
#[derive(Debug, Clone, PartialEq)]
pub struct Bar {
    /// Row label.
    pub label: String,
    /// Bar magnitude (must be finite and non-negative for rendering).
    pub value: f64,
    /// Text appended after the value, e.g. the winning strategy.
    pub note: String,
}

impl Bar {
    /// Creates a bar without a note.
    pub fn new(label: impl Into<String>, value: f64) -> Self {
        Self {
            label: label.into(),
            value,
            note: String::new(),
        }
    }

    /// Creates a bar with a note.
    pub fn with_note(label: impl Into<String>, value: f64, note: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            value,
            note: note.into(),
        }
    }
}

/// Renders a horizontal bar chart scaled to `width` characters at the
/// maximum value.
pub fn bar_chart(bars: &[Bar], width: usize, unit: &str) -> String {
    let max = bars.iter().map(|b| b.value).fold(0.0_f64, f64::max);
    let label_w = bars
        .iter()
        .map(|b| b.label.chars().count())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for b in bars {
        let filled = if max > 0.0 && b.value.is_finite() && b.value > 0.0 {
            ((b.value / max) * width as f64).round() as usize
        } else {
            0
        };
        let pad = label_w.saturating_sub(b.label.chars().count());
        out.push_str(&format!(
            "{}{}  {}{} {:.2} {}{}\n",
            b.label,
            " ".repeat(pad),
            "#".repeat(filled),
            " ".repeat(width.saturating_sub(filled)),
            b.value,
            unit,
            if b.note.is_empty() {
                String::new()
            } else {
                format!("  [{}]", b.note)
            },
        ));
    }
    out
}

/// One segment of a stacked bar.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Segment name (shown in the legend).
    pub name: String,
    /// Segment magnitude.
    pub value: f64,
}

/// Renders stacked horizontal bars (used for execution-time breakdowns,
/// Figs. 7 and 20). Each segment is drawn with a distinct fill character;
/// a legend line maps characters to names.
pub fn stacked_bars(rows: &[(String, Vec<Segment>)], width: usize, unit: &str) -> String {
    const FILLS: [char; 8] = ['#', '=', '@', '+', '%', 'o', '*', '~'];
    // Legend over the union of segment names (ordered by first appearance).
    let mut names: Vec<String> = Vec::new();
    for (_, segs) in rows {
        for s in segs {
            if !names.contains(&s.name) {
                names.push(s.name.clone());
            }
        }
    }
    let fill_of =
        |name: &str| FILLS[names.iter().position(|n| n == name).unwrap_or(0) % FILLS.len()];
    let max: f64 = rows
        .iter()
        .map(|(_, segs)| segs.iter().map(|s| s.value).sum::<f64>())
        .fold(0.0, f64::max);
    let label_w = rows
        .iter()
        .map(|(l, _)| l.chars().count())
        .max()
        .unwrap_or(0);

    let mut out = String::new();
    out.push_str("legend: ");
    for n in &names {
        out.push_str(&format!("{}={} ", fill_of(n), n));
    }
    out.push('\n');
    for (label, segs) in rows {
        let total: f64 = segs.iter().map(|s| s.value).sum();
        let pad = label_w.saturating_sub(label.chars().count());
        out.push_str(&format!("{}{}  ", label, " ".repeat(pad)));
        let mut drawn = 0usize;
        if max > 0.0 {
            for s in segs {
                let w = ((s.value / max) * width as f64).round() as usize;
                out.push_str(&fill_of(&s.name).to_string().repeat(w));
                drawn += w;
            }
        }
        out.push_str(&" ".repeat(width.saturating_sub(drawn)));
        out.push_str(&format!(" {total:.2} {unit}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale_to_max() {
        let out = bar_chart(&[Bar::new("a", 1.0), Bar::new("bb", 2.0)], 10, "x");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].matches('#').count(), 5);
        assert_eq!(lines[1].matches('#').count(), 10);
        assert!(lines[1].starts_with("bb"), "{out}");
    }

    #[test]
    fn zero_and_negative_values_render_empty() {
        let out = bar_chart(&[Bar::new("z", 0.0), Bar::new("n", f64::NAN)], 10, "x");
        assert_eq!(out.matches('#').count(), 0);
    }

    #[test]
    fn notes_are_appended() {
        let out = bar_chart(&[Bar::with_note("a", 1.0, "(TP, DDP)")], 5, "x");
        assert!(out.contains("[(TP, DDP)]"));
    }

    #[test]
    fn stacked_bars_have_legend_and_totals() {
        let rows = vec![
            (
                "serialized".to_owned(),
                vec![
                    Segment {
                        name: "gemm".into(),
                        value: 3.0,
                    },
                    Segment {
                        name: "a2a".into(),
                        value: 1.0,
                    },
                ],
            ),
            (
                "other".to_owned(),
                vec![Segment {
                    name: "gemm".into(),
                    value: 2.0,
                }],
            ),
        ];
        let out = stacked_bars(&rows, 20, "ms");
        assert!(out.starts_with("legend:"));
        assert!(out.contains("#=gemm"));
        assert!(out.contains("=a2a") || out.contains("==a2a"));
        assert!(out.contains("4.00 ms"));
        assert!(out.contains("2.00 ms"));
    }
}
