//! SVG rendering of reproduced figures — grouped, stacked bar charts in
//! the paper's visual idiom (one group per benchmark, one bar per
//! configuration, segments bottom-to-top: L2-read-access, buffer-full,
//! load-hazard).
//!
//! The output is self-contained SVG 1.1 with no external resources, so it
//! can be embedded in documentation or opened directly in a browser:
//!
//! ```no_run
//! use wbsim_experiments::{figures, harness::Harness, svg};
//! let fig = figures::fig4(&Harness::quick());
//! std::fs::write("fig4.svg", svg::render_figure_svg(&fig)).unwrap();
//! ```

use std::fmt::Write as _;

use wbsim_types::stall::StallKind::{BufferFull, L2ReadAccess, LoadHazard};

use crate::harness::FigureResult;

/// Colors per stall category, echoing the paper's black/grey/white split
/// (with enough contrast to survive screens).
const COLOR_R: &str = "#1d2733"; // L2-read-access: near-black
const COLOR_F: &str = "#8c9bab"; // buffer-full: grey
const COLOR_L: &str = "#e8e2d4"; // load-hazard: off-white
const AXIS: &str = "#444444";
const GRID: &str = "#dddddd";

/// Geometry constants (pixels).
const BAR_W: f64 = 11.0;
const BAR_GAP: f64 = 2.0;
const GROUP_GAP: f64 = 14.0;
const PLOT_H: f64 = 260.0;
const MARGIN_L: f64 = 46.0;
const MARGIN_R: f64 = 12.0;
const MARGIN_T: f64 = 40.0;
const MARGIN_B: f64 = 78.0;
const LEGEND_H: f64 = 18.0;

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// A "nice" y-axis ceiling: smallest of 1/2/5·10^k not below `max`.
fn nice_ceiling(max: f64) -> f64 {
    if max <= 0.0 {
        return 1.0;
    }
    let exp = max.log10().floor();
    let base = 10f64.powf(exp);
    for m in [1.0, 2.0, 5.0, 10.0] {
        if m * base >= max {
            return m * base;
        }
    }
    10.0 * base
}

/// Renders a [`FigureResult`] as a standalone SVG document.
#[must_use]
pub fn render_figure_svg(f: &FigureResult) -> String {
    let n_benches = f.benches.len();
    let n_cfgs = f.configs.len().max(1);
    let group_w = n_cfgs as f64 * (BAR_W + BAR_GAP) - BAR_GAP;
    let plot_w = n_benches as f64 * (group_w + GROUP_GAP);
    let width = MARGIN_L + plot_w + MARGIN_R;
    let height = MARGIN_T + PLOT_H + MARGIN_B + LEGEND_H;

    let max_total = f
        .cells
        .iter()
        .flatten()
        .map(|c| c.total_pct())
        .fold(0.0f64, f64::max);
    let y_max = nice_ceiling(max_total.max(0.5));
    let y = |pct: f64| MARGIN_T + PLOT_H - (pct / y_max) * PLOT_H;

    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0}" height="{height:.0}" viewBox="0 0 {width:.0} {height:.0}" font-family="Helvetica, Arial, sans-serif">"#
    );
    let _ = writeln!(
        out,
        r#"<rect width="{width:.0}" height="{height:.0}" fill="white"/>"#
    );
    // Title.
    let _ = writeln!(
        out,
        r#"<text x="{:.1}" y="18" font-size="13" fill="{AXIS}">{}: {}</text>"#,
        MARGIN_L,
        esc(f.id),
        esc(&f.title)
    );

    // Horizontal gridlines + y labels at 5 divisions.
    for i in 0..=5 {
        let v = y_max * i as f64 / 5.0;
        let yy = y(v);
        let _ = writeln!(
            out,
            r#"<line x1="{MARGIN_L:.1}" y1="{yy:.1}" x2="{:.1}" y2="{yy:.1}" stroke="{GRID}" stroke-width="1"/>"#,
            MARGIN_L + plot_w
        );
        let _ = writeln!(
            out,
            r#"<text x="{:.1}" y="{:.1}" font-size="10" fill="{AXIS}" text-anchor="end">{v:.1}</text>"#,
            MARGIN_L - 6.0,
            yy + 3.5
        );
    }
    // Y-axis caption.
    let _ = writeln!(
        out,
        r#"<text x="12" y="{:.1}" font-size="10" fill="{AXIS}" transform="rotate(-90 12 {:.1})">stall cycles, % of total time</text>"#,
        MARGIN_T + PLOT_H / 2.0,
        MARGIN_T + PLOT_H / 2.0
    );

    // Bars.
    for (b, bench) in f.benches.iter().enumerate() {
        let gx = MARGIN_L + b as f64 * (group_w + GROUP_GAP) + GROUP_GAP / 2.0;
        for (c, _cfg) in f.configs.iter().enumerate() {
            let cell = &f.cells[b][c];
            let x = gx + c as f64 * (BAR_W + BAR_GAP);
            let mut acc = 0.0;
            for (pct, color, label) in [
                (cell.r_pct, COLOR_R, L2ReadAccess),
                (cell.f_pct, COLOR_F, BufferFull),
                (cell.l_pct, COLOR_L, LoadHazard),
            ] {
                if pct <= 0.0 {
                    continue;
                }
                let y0 = y(acc + pct);
                let h = y(acc) - y0;
                let _ = writeln!(
                    out,
                    r##"<rect x="{x:.1}" y="{y0:.1}" width="{BAR_W:.1}" height="{h:.2}" fill="{color}" stroke="#333" stroke-width="0.4"><title>{} / {}: {label} {pct:.2}%</title></rect>"##,
                    esc(bench),
                    esc(&f.configs[c]),
                );
                acc += pct;
            }
        }
        // Benchmark label, rotated.
        let lx = gx + group_w / 2.0;
        let ly = MARGIN_T + PLOT_H + 10.0;
        let _ = writeln!(
            out,
            r#"<text x="{lx:.1}" y="{ly:.1}" font-size="10" fill="{AXIS}" text-anchor="end" transform="rotate(-55 {lx:.1} {ly:.1})">{}</text>"#,
            esc(bench)
        );
    }

    // Baseline axis line.
    let _ = writeln!(
        out,
        r#"<line x1="{MARGIN_L:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="{AXIS}" stroke-width="1"/>"#,
        MARGIN_T + PLOT_H,
        MARGIN_L + plot_w,
        MARGIN_T + PLOT_H
    );

    // Legend: stall categories + configuration order note.
    let mut lx = MARGIN_L;
    let ly = height - LEGEND_H;
    for (color, kind) in [
        (COLOR_R, L2ReadAccess),
        (COLOR_F, BufferFull),
        (COLOR_L, LoadHazard),
    ] {
        let label = kind.to_string();
        let _ = writeln!(
            out,
            r##"<rect x="{lx:.1}" y="{:.1}" width="10" height="10" fill="{color}" stroke="#333" stroke-width="0.4"/>"##,
            ly - 9.0
        );
        let _ = writeln!(
            out,
            r#"<text x="{:.1}" y="{ly:.1}" font-size="10" fill="{AXIS}">{label}</text>"#,
            lx + 14.0
        );
        lx += 14.0 + 7.0 * label.len() as f64 + 16.0;
    }
    let _ = writeln!(
        out,
        r#"<text x="{lx:.1}" y="{ly:.1}" font-size="10" fill="{AXIS}">bars per group: {}</text>"#,
        esc(&f.configs.join(", "))
    );

    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::StallCell;
    use wbsim_types::stats::SimStats;

    fn cell(r: f64, f: f64, l: f64) -> StallCell {
        let mut c = StallCell::from_stats(&SimStats::default());
        c.r_pct = r;
        c.f_pct = f;
        c.l_pct = l;
        c
    }

    fn figure() -> FigureResult {
        FigureResult {
            id: "Figure X",
            title: "svg <test> & escaping".into(),
            benches: vec!["alpha", "beta"],
            configs: vec!["a".into(), "b".into()],
            cells: vec![
                vec![cell(1.0, 2.0, 0.5), cell(0.0, 0.0, 0.0)],
                vec![cell(3.0, 0.0, 0.0), cell(0.2, 0.1, 0.1)],
            ],
            errors: Vec::new(),
        }
    }

    #[test]
    fn renders_well_formed_svg() {
        let svg = render_figure_svg(&figure());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<svg").count(), 1);
        // Title text is escaped.
        assert!(svg.contains("svg &lt;test&gt; &amp; escaping"));
        // Zero-height segments are omitted: the all-zero bar adds nothing.
        let rects = svg.matches("<rect").count();
        // background + 3 legend swatches + segments: alpha/a has 3,
        // beta/a has 1, beta/b has 3 → 7 segments.
        assert_eq!(rects, 1 + 3 + 7);
    }

    #[test]
    fn tooltips_carry_values() {
        let svg = render_figure_svg(&figure());
        assert!(svg.contains("alpha / a: L2-read-access 1.00%"));
        assert!(svg.contains("beta / b: load-hazard 0.10%"));
    }

    #[test]
    fn nice_ceiling_picks_round_numbers() {
        assert_eq!(nice_ceiling(0.0), 1.0);
        assert_eq!(nice_ceiling(0.9), 1.0);
        assert_eq!(nice_ceiling(3.4), 5.0);
        assert_eq!(nice_ceiling(7.2), 10.0);
        assert_eq!(nice_ceiling(12.0), 20.0);
        assert_eq!(nice_ceiling(50.0), 50.0);
    }

    #[test]
    fn axis_scales_to_tallest_bar() {
        let mut f = figure();
        f.cells[0][0] = cell(30.0, 10.0, 5.0); // total 45 → ceiling 50
        let svg = render_figure_svg(&f);
        assert!(svg.contains(">50.0</text>"));
    }
}
