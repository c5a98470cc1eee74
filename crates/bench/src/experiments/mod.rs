//! The paper's evaluation and the extensions beyond it.
//!
//! Every module exposes `run()` returning typed rows and `render()`
//! producing the printed table, with the paper's reported values carried
//! alongside the measured ones so the harness output doubles as the
//! EXPERIMENTS.md ledger. Absolute values are not expected to match the
//! 2011 testbed; the *shape* (who wins, by what factor, where crossovers
//! fall) is the reproduction target and is what `tests/` asserts.
//!
//! Figures and tables that apply one method to different data share a
//! module and are given their mix and titles: `fig7` draws Figures 7
//! and 8, `tables56` Tables 5–8.

use ewc_exec::fan_out;

use crate::mix::Mix;

pub mod ablations;
pub mod fermi;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod future_hw;
pub mod multigpu;
pub mod overload;
pub mod policy;
pub mod scenarios;
pub mod table1;
pub mod tables56;
pub mod trace;

/// One reproducible experiment: what `ewc run <id>` regenerates.
pub struct Experiment {
    /// The id `ewc run` takes.
    pub id: &'static str,
    /// One-line description for `ewc experiments`.
    pub description: &'static str,
    /// Run it and render its section of the ledger.
    pub render: fn() -> String,
}

/// Every experiment, in ledger order: the paper's tables and figures,
/// then (from [`EXTENSIONS_FROM`]) the extensions beyond it.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "table1",
        description: "single-instance GPU speedup over CPU (Table 1)",
        render: || table1::render(&table1::run()),
    },
    Experiment {
        id: "fig1",
        description: "motivation sweep: N encryption instances (Figure 1)",
        render: || fig1::render(&fig1::run(9)),
    },
    Experiment {
        id: "scenarios",
        description: "the good and bad consolidation scenarios (Tables 2-3)",
        render: || {
            let (t2, t3) = scenarios::run();
            scenarios::render(&t2, &t3)
        },
    },
    Experiment {
        id: "fig3",
        description: "type-1 performance-model validation (Figure 3)",
        render: || fig3::render(&fig3::run()),
    },
    Experiment {
        id: "fig4",
        description: "type-2 performance-model validation (Figure 4)",
        render: || fig4::render(&fig4::run()),
    },
    Experiment {
        id: "fig5",
        description: "power-model validation, 14 variants (Figure 5)",
        render: || fig5::render(&fig5::run()),
    },
    Experiment {
        id: "fig7",
        description: "encryption sweep, four setups (Figure 7)",
        render: || {
            fig7::render(
                "Figure 7: encryption instances",
                &fig7::run(Mix::encryption, 12),
            )
        },
    },
    Experiment {
        id: "fig8",
        description: "sorting sweep, four setups (Figure 8)",
        render: || fig7::render("Figure 8: sorting instances", &fig7::run(Mix::sorting, 9)),
    },
    Experiment {
        id: "tables56",
        description: "Search+BlackScholes mixes (Tables 5-6)",
        render: || {
            let pair = &tables56::SEARCH_BLACKSCHOLES;
            tables56::render(pair, &tables56::run(pair))
        },
    },
    Experiment {
        id: "tables78",
        description: "Encryption+MonteCarlo mixes (Tables 7-8)",
        render: || {
            let pair = &tables56::ENCRYPTION_MONTECARLO;
            tables56::render(pair, &tables56::run(pair))
        },
    },
    Experiment {
        id: "ablations",
        description: "mechanism on/off studies",
        render: || ablations::render(&ablations::run()),
    },
    Experiment {
        id: "fermi",
        description: "Fermi concurrent kernels vs consolidation (extension)",
        render: || fermi::render(&fermi::run()),
    },
    Experiment {
        id: "multigpu",
        description: "multi-GPU scaling (extension)",
        render: || multigpu::render(&multigpu::run(40)),
    },
    Experiment {
        id: "trace",
        description: "Poisson-trace threshold sweep (extension)",
        render: || trace::render(&trace::run()),
    },
    Experiment {
        id: "overload",
        description: "open-loop overload: goodput vs offered load (extension)",
        render: || overload::render(&overload::run()),
    },
    Experiment {
        id: "future-hw",
        description: "consolidation on Fermi-class silicon (extension)",
        render: || future_hw::render(&future_hw::run(9)),
    },
    Experiment {
        id: "policy",
        description: "race-to-idle vs pace vs cap power policies (extension)",
        render: || policy::render(&policy::run()),
    },
];

/// Index of the first extension in [`EXPERIMENTS`].
pub const EXTENSIONS_FROM: usize = 11;

/// The whole ledger (what EXPERIMENTS.md records): every experiment's
/// section, paper sections first.
///
/// The experiments are independent, so they [`fan_out`] over
/// `parallelism` workers (`0` = one per core, `1` = fully serial).
/// Sections are joined strictly in table order once everything has
/// finished, and every section is a function of its seeds alone, so the
/// output is the same at any setting.
pub fn render_all(parallelism: usize) -> String {
    let sections = fan_out(EXPERIMENTS.len(), parallelism, |i| {
        (EXPERIMENTS[i].render)()
    });
    let mut lines = vec![
        "# Energy-Aware Workload Consolidation — full experiment run",
        "",
    ];
    for (i, section) in sections.iter().enumerate() {
        if i == EXTENSIONS_FROM {
            lines.extend(["# Extensions beyond the paper", ""]);
        }
        lines.push(section);
    }
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_has_unique_ids_and_a_sound_split() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|other| other.id != e.id),
                "duplicate id {}",
                e.id
            );
            assert_eq!(
                e.description.ends_with("(extension)"),
                i >= EXTENSIONS_FROM,
                "{} sits on the wrong side of EXTENSIONS_FROM",
                e.id
            );
        }
    }
}
