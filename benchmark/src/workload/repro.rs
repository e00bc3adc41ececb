//! `repro-quick`: the paper reproduction, `experiments all --quick`.
//! One op is a cold pass (empty artifact cache) then a warm pass over
//! the filled cache, each in its own process and directory; the parent
//! adds their times and checks that they wrote byte-identical results.
//! Each process first builds the four offline plans the experiments
//! deploy (`plan_for` memoizes them per process): that is its set-up.
//!
//! The harness has no seed option: `--quick` always runs seed 7, and
//! this workload runs exactly that, whatever the benchmark seed. (At
//! some other seeds the quick profiling budget finds no covering gadget
//! and the offline pipeline panics on an empty gadget stack.)

use super::{secs, template, Cx, Workload};
use aegis::isa::{IsaCatalog, Vendor};
use aegis::microarch::{EventCatalog, MicroArch, ResponseMatrix};
use aegis::workloads::CryptoApp;
use aegis_bench::experiments::{self, EXPERIMENTS};
use aegis_bench::scenarios::plan_for;
use aegis_bench::{ksa_app, mea_zoo, wfa_app, ExpConfig};
use std::time::Instant;

/// The configuration `experiments all --quick` runs.
pub fn config() -> ExpConfig {
    ExpConfig::quick()
}

pub struct Repro;

impl Workload for Repro {
    fn setup(&mut self, cx: &mut Cx) -> Result<(), String> {
        let cfg = config();
        cx.trace.timed("setup.catalogs", || {
            for arch in MicroArch::ALL {
                EventCatalog::shared(arch);
                ResponseMatrix::shared(arch);
            }
            for vendor in [Vendor::Intel, Vendor::Amd] {
                IsaCatalog::shared(vendor, cfg.seed);
            }
        });
        cx.trace
            .timed("setup.host_new", || template(cfg.seed))
            .map(drop)?;
        cx.trace.timed("setup.plans", || {
            plan_for(&cfg, &wfa_app(&cfg));
            plan_for(&cfg, &ksa_app(&cfg));
            plan_for(&cfg, &mea_zoo(&cfg));
            plan_for(&cfg, &CryptoApp::with_window(4, 400_000_000));
        });
        Ok(())
    }

    /// One pass over every experiment. Untraced it is exactly `run_all`;
    /// traced, each experiment id is a span `repro.<id>`.
    fn job(&mut self, _k: usize, cx: &mut Cx) -> Vec<f64> {
        let cfg = config();
        let t0 = Instant::now();
        let span = cx.trace.begin("op");
        if cx.trace.enabled() {
            for (id, _) in EXPERIMENTS {
                cx.trace
                    .timed(&format!("repro.{id}"), || experiments::run(id, &cfg));
            }
        } else {
            experiments::run_all(&cfg);
        }
        cx.trace.end(span);
        vec![secs(t0)]
    }
}
