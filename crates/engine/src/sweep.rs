//! Sweep descriptions: axes over the chiplet design space that expand
//! deterministically into scenario batches.
//!
//! The paper's results are fixed points in a much larger chiplet
//! design space — chiplet grid size × inter-chiplet link ratio ×
//! fabrication precision σ_f (MECH, arXiv:2305.05149, maps that wider
//! space). A [`Sweep`] makes such grids first-class engine inputs: a
//! small line-oriented text format (read from a file or a CLI flag)
//! names one experiment kind plus up to five axes, and
//! [`Sweep::expand`] produces the Cartesian product as a
//! `Vec<Scenario>` ready for the scheduler.
//!
//! ## Format
//!
//! ```text
//! # comments and blank lines are ignored
//! name       = demo          # scenario-name prefix (default: kind)
//! kind       = fig8          # any --list name (default: fig8)
//! scale      = quick         # quick | paper   (default: quick)
//! grid       = 10q2x2, 10q2x3+10q3x3   # chiplet size 'q' rows 'x' cols;
//!                                      # '+' groups systems into one scenario
//! link_ratio = 1, 2.5        # e_link/e_chip overrides
//! sigma_f    = 0.014, 0.02   # fabrication precision overrides (GHz)
//! detuning   = 0.05, 0.06    # ideal-plan detuning-step overrides (GHz)
//! mode       = match, all    # population comparison mode overrides
//! batch      = 120           # Monte Carlo batch overrides
//! seed       = 7, 8          # root-seed overrides
//! ```
//!
//! Every `key = value` line is one axis (`grid`, `link_ratio`,
//! `sigma_f`, `detuning`, `mode`, `batch`, `seed`) or one fixed field
//! (`name`, `kind`, `scale`). Axis values are comma-separated and must
//! be unique within their axis; an absent axis contributes no override
//! and no product factor. An axis the chosen kind does not consume is
//! rejected ([`Sweep::validate`]): `seed` applies to every kind,
//! `batch` to the Monte Carlo kinds
//! (fig4/fig6/fig8/fig9/fig10/output_gain), `sigma_f` to
//! fig6/fig8/fig9/fig10/output_gain, `detuning` to the kinds whose
//! frequency plan matters (fig4 — where it narrows the panel set to
//! the one step — plus fig6/fig8/fig9/fig10/output_gain), `mode` to
//! the population-comparison kinds (fig8/fig9/fig10), `grid` to
//! fig8/fig9/fig10/table2, and `link_ratio` to fig8/fig10 (fig9
//! sweeps its own panel ratios).
//!
//! ## Determinism contract
//!
//! Expansion is a pure function of the sweep: scenarios appear in the
//! documented axis-nesting order (`grid` outermost, then `link_ratio`,
//! `sigma_f`, `detuning`, `mode`, `batch`, `seed`), scenario names
//! embed every set axis value so a valid sweep never produces
//! duplicate names, and [`Sweep::to_text`] formats a sweep that
//! re-parses ([`Sweep::parse`]) into one with the identical expansion
//! — the properties the sweep test harness pins down.

use chipletqc::lab::ComparisonMode;
use chipletqc_topology::family::ChipletSpec;

use crate::scenario::{ExperimentKind, Overrides, Scale, Scenario, SystemSpec};

/// The most scenarios one sweep may expand to. [`Sweep::expand`]
/// allocates the whole batch up front and every scenario becomes a
/// scheduler task, so an unbounded product of axes is one small text
/// that exhausts memory: five 40-value axes make 102,400,000
/// scenarios, a 20 GB allocation whose failure aborts the process —
/// a daemon too, since an allocation failure does not unwind. The
/// largest sweep this repository runs has 432 scenarios.
pub const MAX_SCENARIOS: usize = 10_000;

/// The largest Monte Carlo batch a sweep may ask for. A batch is one
/// task, and a lab's survivor bin grows with every trial
/// (`fabricate_collision_free` collects into a `Vec`), so an unbounded
/// batch is one small text that holds a worker and an admission slot
/// until its trials end or an allocation fails; an allocation failure
/// does not unwind, so it aborts the process, a daemon too. The
/// paper's largest batch is 10,000, and the largest this repository
/// runs is 800,000.
pub const MAX_BATCH: usize = 1_000_000;

/// A sweep: one experiment kind plus axes over the chiplet design
/// space, expanding into the Cartesian-product scenario batch.
///
/// Every `Vec` field below is an axis. [`Sweep::expanded_len`],
/// [`Sweep::validate`], [`Sweep::expand`] and [`Sweep::to_text`]
/// destructure the whole struct and [`Sweep::parse`] builds it in one
/// literal, so a field added here fails to compile until all five
/// handle it.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Scenario-name prefix (defaults to the kind's name).
    pub name: String,
    /// The experiment every expanded scenario runs.
    pub kind: ExperimentKind,
    /// Base configuration scale.
    pub scale: Scale,
    /// System-set axis: each entry is the full system set of one
    /// scenario (usually a single grid; `+`-joined groups evaluate
    /// several systems in one scenario).
    pub grids: Vec<Vec<SystemSpec>>,
    /// `e_link/e_chip` axis (must be positive).
    pub link_ratios: Vec<f64>,
    /// Fabrication-precision σ_f axis (GHz; must be non-negative).
    pub sigma_fs: Vec<f64>,
    /// Ideal-plan detuning-step axis (GHz; must be positive).
    pub detunings: Vec<f64>,
    /// Population comparison-mode axis.
    pub modes: Vec<ComparisonMode>,
    /// Monte Carlo batch-size axis (must be positive).
    pub batches: Vec<usize>,
    /// Root-seed axis.
    pub seeds: Vec<u64>,
}

impl Sweep {
    /// An axis-less sweep of `kind` at `scale` (expands to the one
    /// unmodified scenario).
    pub fn new(kind: ExperimentKind, scale: Scale) -> Sweep {
        Sweep {
            name: kind.name().to_string(),
            kind,
            scale,
            grids: Vec::new(),
            link_ratios: Vec::new(),
            sigma_fs: Vec::new(),
            detunings: Vec::new(),
            modes: Vec::new(),
            batches: Vec::new(),
            seeds: Vec::new(),
        }
    }

    /// The number of scenarios [`Sweep::expand`] produces: the product
    /// of the non-empty axis lengths, saturating at `usize::MAX`
    /// instead of overflowing.
    pub fn expanded_len(&self) -> usize {
        let Sweep {
            name: _,
            kind: _,
            scale: _,
            grids,
            link_ratios,
            sigma_fs,
            detunings,
            modes,
            batches,
            seeds,
        } = self;
        [
            grids.len(),
            link_ratios.len(),
            sigma_fs.len(),
            detunings.len(),
            modes.len(),
            batches.len(),
            seeds.len(),
        ]
        .into_iter()
        .filter(|&n| n > 0)
        .fold(1, usize::saturating_mul)
    }

    /// Checks the invariants expansion relies on: a filesystem-safe
    /// name (scenario names become artifact file names), axis values
    /// unique within each axis (so names are unique), finite floats,
    /// constructible grids without repeated systems, batches of at most
    /// [`MAX_BATCH`] trials, at most [`MAX_SCENARIOS`] scenarios, and —
    /// because a silently ignored axis would expand into
    /// identically-valued scenarios labeled as distinct design points —
    /// only axes the chosen kind actually consumes.
    pub fn validate(&self) -> Result<(), String> {
        let Sweep {
            name,
            kind,
            scale: _,
            grids,
            link_ratios,
            sigma_fs,
            detunings,
            modes,
            batches,
            seeds,
        } = self;
        if name.is_empty()
            || name.starts_with(['.', '-'])
            || !name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
        {
            return Err(format!(
                "bad name `{name}` (allowed: [A-Za-z0-9_.-], not starting with '.' or '-')"
            ));
        }
        for group in grids {
            if group.is_empty() {
                return Err("grid: empty system group".into());
            }
            for spec in group {
                ChipletSpec::with_qubits(spec.chiplet_qubits)
                    .map_err(|e| format!("grid: chiplet size {}: {e}", spec.chiplet_qubits))?;
                if spec.rows == 0 || spec.cols == 0 {
                    return Err(format!(
                        "grid: degenerate module grid {}x{}",
                        spec.rows, spec.cols
                    ));
                }
            }
            check_unique("grid group", group, fmt_system)?;
        }
        for v in link_ratios.iter().chain(sigma_fs).chain(detunings) {
            if !v.is_finite() {
                return Err(format!("non-finite axis value {v}"));
            }
        }
        // Each bound is an assertion a run would hit mid-batch
        // (`FrequencyPlan::with_step`, `FabricationParams::new`,
        // `LinkModel::with_ratio`, Fig. 8's `post_assembly_yield`).
        for step in detunings {
            if *step <= 0.0 {
                return Err(format!("detuning: step must be positive, got {step}"));
            }
        }
        for sigma in sigma_fs {
            if *sigma < 0.0 {
                return Err(format!("sigma_f: precision must be non-negative, got {sigma}"));
            }
        }
        for ratio in link_ratios {
            if *ratio <= 0.0 {
                return Err(format!("link_ratio: ratio must be positive, got {ratio}"));
            }
        }
        if batches.contains(&0) {
            return Err("batch: size must be positive, got 0".into());
        }
        if let Some(batch) = batches.iter().find(|b| **b > MAX_BATCH) {
            return Err(format!("batch: size must be at most {MAX_BATCH}, got {batch}"));
        }
        let scenarios = self.expanded_len();
        if scenarios > MAX_SCENARIOS {
            return Err(format!(
                "the axes expand to {scenarios} scenarios, past the \
                 {MAX_SCENARIOS}-scenario bound"
            ));
        }
        // Rejects non-empty axes the kind's `Scenario::run` arm never
        // reads (the `seed` axis applies to every kind). Fig. 9
        // rejects the scalar `link_ratio` because its panels sweep
        // their own ratio list.
        use ExperimentKind as K;
        for (axis, len, applies) in [
            ("grid", grids.len(), matches!(kind, K::Fig8 | K::Fig9 | K::Fig10 | K::Table2)),
            ("link_ratio", link_ratios.len(), matches!(kind, K::Fig8 | K::Fig10)),
            (
                "sigma_f",
                sigma_fs.len(),
                matches!(kind, K::Fig6 | K::Fig8 | K::Fig9 | K::Fig10 | K::OutputGain),
            ),
            (
                "detuning",
                detunings.len(),
                matches!(
                    kind,
                    K::Fig4 | K::Fig6 | K::Fig8 | K::Fig9 | K::Fig10 | K::OutputGain
                ),
            ),
            ("mode", modes.len(), matches!(kind, K::Fig8 | K::Fig9 | K::Fig10)),
            (
                "batch",
                batches.len(),
                matches!(
                    kind,
                    K::Fig4 | K::Fig6 | K::Fig8 | K::Fig9 | K::Fig10 | K::OutputGain
                ),
            ),
        ] {
            if len > 0 && !applies {
                return Err(format!(
                    "{axis}: axis has no effect on kind {} (the expansion would repeat \
                     identical scenarios under distinct names)",
                    kind.name()
                ));
            }
        }
        check_unique("grid", grids, |g| fmt_grid_group(g))?;
        check_unique("link_ratio", link_ratios, |v| fmt_f64(*v))?;
        check_unique("sigma_f", sigma_fs, |v| fmt_f64(*v))?;
        check_unique("detuning", detunings, |v| fmt_f64(*v))?;
        check_unique("mode", modes, |m| fmt_mode(*m).to_string())?;
        check_unique("batch", batches, usize::to_string)?;
        check_unique("seed", seeds, u64::to_string)?;
        Ok(())
    }

    /// Expands the sweep into its scenario batch: the Cartesian
    /// product of the non-empty axes in the documented nesting order
    /// (`grid` outermost, then `link_ratio`, `sigma_f`, `detuning`,
    /// `mode`, `batch`, `seed`), each scenario named
    /// `{name}/{axis values}`.
    ///
    /// Expansion is a pure function of the sweep — same sweep, same
    /// scenarios in the same order — and a [valid](Sweep::validate)
    /// sweep never produces two scenarios with the same name or
    /// overrides.
    pub fn expand(&self) -> Vec<Scenario> {
        // An absent axis contributes one "unset" (None) point so the
        // product loop stays uniform without multiplying the count.
        fn axis<T: Clone>(values: &[T]) -> Vec<Option<T>> {
            if values.is_empty() {
                vec![None]
            } else {
                values.iter().cloned().map(Some).collect()
            }
        }

        let Sweep {
            name,
            kind,
            scale,
            grids,
            link_ratios,
            sigma_fs,
            detunings,
            modes,
            batches,
            seeds,
        } = self;
        let mut scenarios = Vec::with_capacity(self.expanded_len());
        for grid in axis(grids) {
            for ratio in axis(link_ratios) {
                for sigma in axis(sigma_fs) {
                    for step in axis(detunings) {
                        for mode in axis(modes) {
                            for batch in axis(batches) {
                                for seed in axis(seeds) {
                                    let mut parts: Vec<String> = Vec::new();
                                    if let Some(g) = &grid {
                                        parts.push(format!("g{}", fmt_grid_group(g)));
                                    }
                                    if let Some(r) = ratio {
                                        parts.push(format!("r{}", fmt_f64(r)));
                                    }
                                    if let Some(f) = sigma {
                                        parts.push(format!("f{}", fmt_f64(f)));
                                    }
                                    if let Some(d) = step {
                                        parts.push(format!("d{}", fmt_f64(d)));
                                    }
                                    if let Some(m) = mode {
                                        parts.push(format!("m{}", fmt_mode(m)));
                                    }
                                    if let Some(b) = batch {
                                        parts.push(format!("b{b}"));
                                    }
                                    if let Some(s) = seed {
                                        parts.push(format!("s{s}"));
                                    }
                                    scenarios.push(Scenario {
                                        name: if parts.is_empty() {
                                            name.clone()
                                        } else {
                                            format!("{name}/{}", parts.join("_"))
                                        },
                                        kind: *kind,
                                        scale: *scale,
                                        overrides: Overrides {
                                            batch,
                                            seed,
                                            link_ratio: ratio,
                                            sigma_f: sigma,
                                            detuning_step: step,
                                            comparison: mode,
                                            systems: grid.clone(),
                                            ..Overrides::default()
                                        },
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        scenarios
    }

    /// Parses the line-oriented sweep format (see the module docs for
    /// the grammar) and [validates](Sweep::validate) the result.
    pub fn parse(text: &str) -> Result<Sweep, String> {
        let mut name = None;
        let mut kind = ExperimentKind::Fig8;
        let mut scale = Scale::Quick;
        let mut grids = Vec::new();
        let mut link_ratios = Vec::new();
        let mut sigma_fs = Vec::new();
        let mut detunings = Vec::new();
        let mut modes = Vec::new();
        let mut batches = Vec::new();
        let mut seeds = Vec::new();
        let mut seen_keys: Vec<String> = Vec::new();
        for (number, raw) in text.lines().enumerate() {
            let err = |message: String| format!("line {}: {message}", number + 1);
            let line = strip_comment(raw).map_err(err)?.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| err(format!("expected `key = value`, got `{line}`")))?;
            if seen_keys.iter().any(|k| k == key) {
                return Err(err(format!("duplicate key `{key}`")));
            }
            seen_keys.push(key.to_string());
            match key {
                // Charset is enforced by `validate` below.
                "name" => name = Some(value.to_string()),
                "kind" => {
                    kind = ExperimentKind::parse(value)
                        .ok_or_else(|| err(format!("unknown kind `{value}`")))?;
                }
                "scale" => {
                    scale = match value {
                        "quick" => Scale::Quick,
                        "paper" => Scale::Paper,
                        other => return Err(err(format!("unknown scale `{other}`"))),
                    };
                }
                "grid" => {
                    grids = split_values(value)
                        .map(parse_grid_group)
                        .collect::<Result<_, _>>()
                        .map_err(err)?;
                }
                "link_ratio" => link_ratios = parse_axis(value, "link_ratio").map_err(err)?,
                "sigma_f" => sigma_fs = parse_axis(value, "sigma_f").map_err(err)?,
                "detuning" => detunings = parse_axis(value, "detuning").map_err(err)?,
                "mode" => {
                    modes = split_values(value)
                        .map(parse_mode)
                        .collect::<Result<_, _>>()
                        .map_err(err)?;
                }
                "batch" => batches = parse_axis(value, "batch").map_err(err)?,
                "seed" => seeds = parse_axis(value, "seed").map_err(err)?,
                other => return Err(err(format!("unknown key `{other}`"))),
            }
        }
        let sweep = Sweep {
            name: name.unwrap_or_else(|| kind.name().to_string()),
            kind,
            scale,
            grids,
            link_ratios,
            sigma_fs,
            detunings,
            modes,
            batches,
            seeds,
        };
        sweep.validate()?;
        Ok(sweep)
    }

    /// Formats the sweep canonically: parsing the result yields a
    /// sweep with the identical [`Sweep::expand`] output.
    pub fn to_text(&self) -> String {
        let Sweep {
            name,
            kind,
            scale,
            grids,
            link_ratios,
            sigma_fs,
            detunings,
            modes,
            batches,
            seeds,
        } = self;
        let mut out = String::from("# chipletqc-engine sweep\n");
        out.push_str(&format!("name = {name}\n"));
        out.push_str(&format!("kind = {}\n", kind.name()));
        out.push_str(&format!("scale = {}\n", scale.name()));
        let axis = |out: &mut String, key: &str, values: Vec<String>| {
            if !values.is_empty() {
                out.push_str(&format!("{key} = {}\n", values.join(", ")));
            }
        };
        axis(&mut out, "grid", grids.iter().map(|g| fmt_grid_group(g)).collect());
        axis(&mut out, "link_ratio", link_ratios.iter().map(|v| fmt_f64(*v)).collect());
        axis(&mut out, "sigma_f", sigma_fs.iter().map(|v| fmt_f64(*v)).collect());
        axis(&mut out, "detuning", detunings.iter().map(|v| fmt_f64(*v)).collect());
        axis(&mut out, "mode", modes.iter().map(|m| fmt_mode(*m).to_string()).collect());
        axis(&mut out, "batch", batches.iter().map(usize::to_string).collect());
        axis(&mut out, "seed", seeds.iter().map(u64::to_string).collect());
        out
    }
}

/// Formats an `f64` via Rust's shortest round-trip formatting — the
/// canonical axis-value spelling (injective on distinct values, exact
/// on re-parse).
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

/// The canonical comparison-mode axis spelling.
fn fmt_mode(mode: ComparisonMode) -> &'static str {
    match mode {
        ComparisonMode::MatchMonolithicCount => "match",
        ComparisonMode::AllAssembled => "all",
    }
}

/// Parses one comparison-mode axis value.
fn parse_mode(value: &str) -> Result<ComparisonMode, String> {
    match value {
        "match" => Ok(ComparisonMode::MatchMonolithicCount),
        "all" => Ok(ComparisonMode::AllAssembled),
        other => Err(format!("mode: bad value `{other}` (want match or all)")),
    }
}

/// Formats one system canonically (`10q2x2`).
fn fmt_system(spec: &SystemSpec) -> String {
    format!("{}q{}x{}", spec.chiplet_qubits, spec.rows, spec.cols)
}

/// Formats one system group canonically (`10q2x2` / `10q2x2+10q3x3`).
fn fmt_grid_group(group: &[SystemSpec]) -> String {
    group.iter().map(fmt_system).collect::<Vec<_>>().join("+")
}

/// Strips a `#` comment from one sweep line. A `#` starts a comment
/// only at line start or after whitespace; a `#` embedded directly in
/// a value is rejected instead of silently truncating the value — a
/// future value format containing `#` must fail loudly, not lose its
/// tail.
fn strip_comment(raw: &str) -> Result<&str, String> {
    match raw.find('#') {
        None => Ok(raw),
        Some(at) => {
            let before = &raw[..at];
            if before.is_empty() || before.ends_with(char::is_whitespace) {
                Ok(before)
            } else {
                Err(format!(
                    "`#` embedded in a value (put whitespace before `#` to start a comment): \
                     `{raw}`"
                ))
            }
        }
    }
}

fn split_values(value: &str) -> impl Iterator<Item = &str> {
    value.split(',').map(str::trim).filter(|v| !v.is_empty())
}

fn parse_axis<T: std::str::FromStr>(value: &str, key: &str) -> Result<Vec<T>, String> {
    split_values(value)
        .map(|v| v.parse().map_err(|_| format!("{key}: bad value `{v}`")))
        .collect()
}

/// Parses one grid-axis entry: `+`-joined `{chiplet}q{rows}x{cols}`
/// system descriptions.
fn parse_grid_group(entry: &str) -> Result<Vec<SystemSpec>, String> {
    entry
        .split('+')
        .map(str::trim)
        .map(|system| {
            let bad = || format!("grid: bad system `{system}` (want e.g. 10q2x2)");
            let (chiplet, grid) = system.split_once('q').ok_or_else(bad)?;
            let (rows, cols) = grid.split_once('x').ok_or_else(bad)?;
            Ok(SystemSpec {
                chiplet_qubits: chiplet.parse().map_err(|_| bad())?,
                rows: rows.parse().map_err(|_| bad())?,
                cols: cols.parse().map_err(|_| bad())?,
            })
        })
        .collect()
}

fn check_unique<T>(axis: &str, values: &[T], fmt: impl Fn(&T) -> String) -> Result<(), String> {
    let mut seen: Vec<String> = Vec::with_capacity(values.len());
    for value in values {
        let formatted = fmt(value);
        if seen.contains(&formatted) {
            return Err(format!("{axis}: duplicate value {formatted}"));
        }
        seen.push(formatted);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Sweep {
        Sweep {
            name: "demo".into(),
            grids: vec![
                vec![SystemSpec { chiplet_qubits: 10, rows: 2, cols: 2 }],
                vec![
                    SystemSpec { chiplet_qubits: 10, rows: 2, cols: 3 },
                    SystemSpec { chiplet_qubits: 20, rows: 2, cols: 2 },
                ],
            ],
            link_ratios: vec![1.0, 2.5],
            sigma_fs: vec![0.014],
            batches: vec![120],
            seeds: vec![7, 8],
            ..Sweep::new(ExperimentKind::Fig8, Scale::Quick)
        }
    }

    #[test]
    fn expansion_is_the_cartesian_product_in_nesting_order() {
        let sweep = demo();
        let scenarios = sweep.expand();
        assert_eq!(scenarios.len(), sweep.expanded_len());
        assert_eq!(scenarios.len(), 8, "2 grids x 2 ratios x 1 sigma x 1 batch x 2 seeds");
        // Innermost axis (seed) varies fastest.
        assert_eq!(scenarios[0].name, "demo/g10q2x2_r1_f0.014_b120_s7");
        assert_eq!(scenarios[1].name, "demo/g10q2x2_r1_f0.014_b120_s8");
        assert_eq!(scenarios[2].name, "demo/g10q2x2_r2.5_f0.014_b120_s7");
        assert_eq!(scenarios[4].name, "demo/g10q2x3+20q2x2_r1_f0.014_b120_s7");
        // Overrides carry the axis values.
        assert_eq!(scenarios[0].overrides.seed, Some(7));
        assert_eq!(scenarios[0].overrides.batch, Some(120));
        assert_eq!(scenarios[0].overrides.link_ratio, Some(1.0));
        assert_eq!(scenarios[0].overrides.sigma_f, Some(0.014));
        assert_eq!(
            scenarios[4].overrides.systems.as_deref().unwrap().len(),
            2,
            "grouped grids evaluate several systems in one scenario"
        );
        // Names are unique.
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len());
    }

    #[test]
    fn empty_axes_contribute_nothing() {
        let sweep = Sweep::new(ExperimentKind::OutputGain, Scale::Paper);
        assert!(sweep.validate().is_ok());
        assert_eq!(sweep.expanded_len(), 1);
        let scenarios = sweep.expand();
        assert_eq!(scenarios.len(), 1);
        assert_eq!(scenarios[0].name, "output_gain");
        assert_eq!(scenarios[0].overrides, Overrides::default());
        assert_eq!(scenarios[0].scale, Scale::Paper);
    }

    #[test]
    fn detuning_and_mode_axes_expand_with_overrides() {
        let sweep = Sweep {
            name: "dm".into(),
            detunings: vec![0.05, 0.06],
            modes: vec![ComparisonMode::MatchMonolithicCount, ComparisonMode::AllAssembled],
            seeds: vec![7],
            ..Sweep::new(ExperimentKind::Fig8, Scale::Quick)
        };
        sweep.validate().expect("valid sweep");
        let scenarios = sweep.expand();
        assert_eq!(scenarios.len(), 4);
        assert_eq!(scenarios[0].name, "dm/d0.05_mmatch_s7");
        assert_eq!(scenarios[1].name, "dm/d0.05_mall_s7");
        assert_eq!(scenarios[2].name, "dm/d0.06_mmatch_s7");
        assert_eq!(scenarios[3].name, "dm/d0.06_mall_s7");
        assert_eq!(scenarios[0].overrides.detuning_step, Some(0.05));
        assert_eq!(scenarios[1].overrides.comparison, Some(ComparisonMode::AllAssembled));
        // The canonical text round-trips the new axes too.
        let reparsed = Sweep::parse(&sweep.to_text()).expect("canonical text parses");
        assert_eq!(reparsed, sweep);
        assert_eq!(reparsed.expand(), scenarios);
    }

    #[test]
    fn axes_the_kind_ignores_are_rejected() {
        // Every kind accepts a seed axis.
        for kind in ExperimentKind::ALL {
            let sweep = Sweep { seeds: vec![1, 2], ..Sweep::new(kind, Scale::Quick) };
            assert!(sweep.validate().is_ok(), "{kind:?} rejects seeds");
        }
        // Detuning steps reach every Monte Carlo kind through the
        // frequency plan (or, for fig4, the panel set) — but mean
        // nothing to the calibration/compile-only kinds.
        for kind in [ExperimentKind::Fig3b, ExperimentKind::Fig7, ExperimentKind::Table2] {
            let sweep = Sweep { detunings: vec![0.06], ..Sweep::new(kind, Scale::Quick) };
            assert!(sweep.validate().is_err(), "{kind:?} must reject detuning");
        }
        let sweep =
            Sweep { detunings: vec![0.06], ..Sweep::new(ExperimentKind::Fig4, Scale::Quick) };
        assert!(sweep.validate().is_ok(), "fig4 consumes detuning");
        // Comparison mode only matters where MCM and monolithic
        // populations are matched.
        for kind in [ExperimentKind::Fig4, ExperimentKind::Fig6, ExperimentKind::OutputGain] {
            let sweep = Sweep {
                modes: vec![ComparisonMode::AllAssembled],
                ..Sweep::new(kind, Scale::Quick)
            };
            assert!(sweep.validate().is_err(), "{kind:?} must reject mode");
        }
        // An output-gain "grid sweep" would repeat one measurement
        // under eight distinct names — reject it loudly instead.
        let sweep = Sweep {
            grids: vec![vec![SystemSpec { chiplet_qubits: 10, rows: 2, cols: 2 }]],
            ..Sweep::new(ExperimentKind::OutputGain, Scale::Quick)
        };
        let error = sweep.validate().expect_err("grid must not apply to output_gain");
        assert!(error.contains("no effect"), "{error}");
        // Fig. 9 panels sweep their own ratio list; the scalar ratio
        // axis never reaches them.
        let sweep =
            Sweep { link_ratios: vec![1.0], ..Sweep::new(ExperimentKind::Fig9, Scale::Quick) };
        assert!(sweep.validate().is_err());
        // Batch on the compile-only kinds is meaningless.
        let sweep =
            Sweep { batches: vec![100], ..Sweep::new(ExperimentKind::Table2, Scale::Quick) };
        assert!(sweep.validate().is_err());
    }

    #[test]
    fn text_round_trips_through_the_parser() {
        let sweep = demo();
        let reparsed = Sweep::parse(&sweep.to_text()).expect("canonical text parses");
        assert_eq!(reparsed, sweep);
        assert_eq!(reparsed.expand(), sweep.expand());
    }

    #[test]
    fn parser_accepts_comments_whitespace_and_defaults() {
        let sweep = Sweep::parse(
            "# a demo\n\nkind = fig9   # trailing comment\n  grid=10q2x2 , 10q3x3\n",
        )
        .unwrap();
        assert_eq!(sweep.kind, ExperimentKind::Fig9);
        assert_eq!(sweep.scale, Scale::Quick);
        assert_eq!(sweep.name, "fig9", "name defaults to the kind");
        assert_eq!(sweep.grids.len(), 2);
        assert_eq!(sweep.expanded_len(), 2);
    }

    #[test]
    fn embedded_hash_is_an_error_not_a_silent_truncation() {
        // Regression: `raw.split('#')` treated ANY `#` as a comment
        // start, silently truncating a value containing one. Now a
        // comment needs line start or preceding whitespace, and an
        // embedded `#` fails loudly.
        for text in ["batch = 100#late", "name = a#b", "seed = 1,2#3", "kind = fig8# c"] {
            let error = Sweep::parse(text).expect_err(text);
            assert!(error.contains('#'), "{error}");
            assert!(error.contains("line 1"), "{error}");
        }
        // Whitespace-introduced comments (and full-line ones) still
        // work, including `#` inside the comment text itself.
        let sweep = Sweep::parse(
            "# leading comment with issue #42\n\
             kind = fig8 # trailing, see #7\n\
             batch = 100\t# tab-introduced\n",
        )
        .unwrap();
        assert_eq!(sweep.kind, ExperimentKind::Fig8);
        assert_eq!(sweep.batches, vec![100]);
    }

    #[test]
    fn the_scenario_count_is_bounded() {
        let values = |n: u64| (1..=n).map(|v| v.to_string()).collect::<Vec<_>>().join(",");
        let at_bound =
            Sweep::parse(&format!("link_ratio = {}\nseed = {}", values(100), values(100)))
                .expect("100 x 100 scenarios sit at the bound");
        assert_eq!(at_bound.expanded_len(), MAX_SCENARIOS);
        let forty = values(40);
        for (text, count) in [
            (format!("link_ratio = {}\nseed = {}", values(200), values(100)), 20_000),
            (
                format!(
                    "link_ratio = {forty}\nsigma_f = {forty}\ndetuning = {forty}\n\
                     batch = {forty}\nseed = {forty}"
                ),
                102_400_000,
            ),
        ] {
            let error = Sweep::parse(&text).expect_err("past the bound");
            assert!(
                error.contains(&format!("expand to {count} scenarios"))
                    && error.contains(&format!("{MAX_SCENARIOS}-scenario bound")),
                "{error}"
            );
        }
        // Six 2,000-value axes overflow `usize`; the count saturates
        // rather than wrapping to something under the bound.
        let axis = || (1..=2000u32).map(f64::from).collect::<Vec<_>>();
        let overflowing = Sweep {
            grids: (1..=2000)
                .map(|rows| vec![SystemSpec { chiplet_qubits: 10, rows, cols: 1 }])
                .collect(),
            link_ratios: axis(),
            sigma_fs: axis(),
            detunings: axis(),
            batches: (1..=2000).collect(),
            seeds: (1..=2000).collect(),
            ..Sweep::new(ExperimentKind::Fig8, Scale::Quick)
        };
        assert_eq!(overflowing.expanded_len(), usize::MAX);
        assert!(overflowing.validate().expect_err("past the bound").contains("bound"));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for (text, needle) in [
            ("bogus line", "key = value"),
            ("kind = fig99", "unknown kind"),
            ("scale = medium", "unknown scale"),
            ("color = red", "unknown key"),
            ("grid = 10q2x2\ngrid = 10q3x3", "duplicate key"),
            ("seed = 1, 1", "duplicate value"),
            ("link_ratio = 1, one", "bad value"),
            ("grid = 10x2x2", "bad system"),
            ("grid = 11q2x2", "chiplet size 11"),
            ("grid = 10q0x2", "degenerate"),
            ("grid = 10q2x2+10q2x2", "duplicate value"),
            ("name = a/b", "bad name"),
            ("name = ..", "bad name"),
            ("name = -x", "bad name"),
            ("kind = output_gain\ngrid = 10q2x2", "no effect"),
            ("kind = fig9\nlink_ratio = 2", "no effect"),
            ("kind = table2\ndetuning = 0.06", "no effect"),
            ("kind = fig4\nmode = match", "no effect"),
            ("detuning = 0", "must be positive"),
            ("detuning = -0.06", "must be positive"),
            ("detuning = 0.05, 0.05", "duplicate value"),
            ("sigma_f = -0.1", "sigma_f: precision must be non-negative"),
            ("link_ratio = 0", "link_ratio: ratio must be positive"),
            ("link_ratio = -2.5", "link_ratio: ratio must be positive"),
            ("batch = 120, 0", "batch: size must be positive"),
            ("batch = 100000000000000", "batch: size must be at most 1000000"),
            ("mode = maybe", "bad value"),
            ("mode = match, match", "duplicate value"),
        ] {
            let error = Sweep::parse(text).expect_err(text);
            assert!(error.contains(needle), "`{text}` -> `{error}`");
        }
    }
}
