//! A tour of the substrate: what SEV does and does not protect.
//!
//! Shows the confidentiality boundary the whole paper rests on — the
//! host cannot read an SEV guest's memory or registers, but it can read
//! every HPC register mapping to the guest's core, and the counters
//! visibly track the guest's activity.
//!
//! ```sh
//! cargo run --release --example host_monitoring
//! ```

use aegis::microarch::{named, MicroArch, OriginFilter};
use aegis::sev::{Host, PlanSource, SevMode};
use aegis::workloads::{SecretApp, WebsiteCatalog};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 7);
    let vm = host.launch_vm(1, SevMode::SevSnp)?;
    println!("launched a SEV-SNP guest on {}", host.arch());

    // SEV's promise: memory and registers are sealed.
    println!(
        "\nhost tries to read guest memory:    {:?}",
        host.read_guest_memory(vm).err()
    );
    println!(
        "host tries to read guest registers: {:?}",
        host.read_guest_registers(vm).err()
    );

    // SEV's gap: the host owns the PMU.
    let core = host.core_of(vm, 0)?;
    let catalog = host.core(core).catalog();
    let events = catalog.attack_events().to_vec();
    println!("\nbut the host programs the guest core's counters without asking:");
    for &e in &events {
        println!("  {}", catalog.get(e).unwrap().name);
    }

    // Guest quietly browses a website; host watches the counters.
    let app = WebsiteCatalog::new(7);
    let mut rng = StdRng::seed_from_u64(3);
    let plan = app.sample_plan(2, &mut rng); // facebook.com
    host.attach_app(vm, 0, Box::new(PlanSource::new(plan)))?;
    let trace = host
        .record_trace(&[core], &events, OriginFilter::Any, 50_000_000, 500_000_000)?
        .remove(0);

    println!(
        "\nHPC trace while the guest loads {} (50 ms samples):",
        app.secret_name(2)
    );
    println!("  t(ms)   RETIRED_UOPS   LS_DISPATCH    MAB_ALLOC      DC_REFILLS");
    for t in 0..trace.len() {
        println!(
            "  {:>5}   {:>12.0}   {:>11.0}   {:>10.0}   {:>13.0}",
            t * 50,
            trace.data[0][t],
            trace.data[1][t],
            trace.data[2][t],
            trace.data[3][t],
        );
    }

    // Idle comparison: the signal is unmistakably the guest's.
    host.attach_app(vm, 0, Box::new(PlanSource::new(Default::default())))?;
    let idle = host
        .record_trace(
            &[core],
            &catalog.attack_events(),
            OriginFilter::Any,
            50_000_000,
            200_000_000,
        )?
        .remove(0);
    println!(
        "\nidle-guest counter totals for comparison: {:?}",
        idle.totals().iter().map(|x| *x as u64).collect::<Vec<_>>()
    );
    println!("\nthis gap — sealed memory, open counters — is what Aegis closes in software.");

    // RETIRED_UOPS exists on every model; just assert we used real names.
    assert!(catalog.lookup(named::RETIRED_UOPS).is_some());
    Ok(())
}
