//! Golden digests: the engine's observable behaviour, pinned.
//!
//! Every single-VM leg below runs a shortened graphchi and nginx (the
//! `tests/chaos_soak.rs` shortening) and hashes three byte streams with
//! FNV-1a/64: the `RunReport` JSON, the full event trace, and the
//! telemetry snapshot. The legs cover every hotness-tracking discipline
//! (VMM-exclusive full scans, guest-guided scans, page-table A/D
//! harvests), the knobs that shape each of them (tracking scope, adaptive
//! interval, NVM write-awareness, a third tier, a FastMem small enough to
//! fill, a full FastMem holding cold pages to demote, a guest with no heap
//! to harvest) and the fault injector's migration path. The quick-mode
//! experiment drivers that route through tracking are pinned on their
//! exported JSON.
//!
//! The digests live in `tests/golden/digests.txt`. On a mismatch the test
//! prints the complete replacement file; regenerating means pasting it
//! over the committed one and recording in `CHANGES.md` which digests
//! changed and why. There is no switch that blesses new output.

use heteroos::core::experiments::{
    ablations, coordinated, extensions, overhead, placement, tiers, ExpOptions,
};
use heteroos::core::{Policy, SimConfig, SingleVmSim, Tracking};
use heteroos::faults::{FaultInjector, FaultPlan};
use heteroos::sim::{Nanos, Runner};
use heteroos::workloads::{apps, AppWorkload, WorkloadSpec};

const GOLDEN: &str = include_str!("golden/digests.txt");
const GB: u64 = 1 << 30;
const SEEDS: [u64; 3] = [42, 7, 1234];
/// Seeds that draw the light (`7 % 3 == 1`) and heavy (`8 % 3 == 2`)
/// fault plans from `FaultPlan::for_seed`.
const FAULT_SEEDS: [u64; 2] = [7, 8];

/// FNV-1a, 64-bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The workload a leg runs.
#[derive(Clone, Copy)]
enum App {
    Graphchi,
    Nginx,
    /// Nginx with its heap folded into the page cache: the guest maps no
    /// anonymous memory for the first seconds, so early A/D scans find no
    /// ranges to sweep.
    HeaplessNginx,
}

impl App {
    fn spec(self) -> WorkloadSpec {
        let mut spec = match self {
            App::Graphchi => apps::graphchi(),
            App::Nginx | App::HeaplessNginx => apps::nginx(),
        };
        if let App::HeaplessNginx = self {
            spec.footprint.heap = 0;
            spec.access_mix.page_cache += spec.access_mix.heap;
            spec.access_mix.heap = 0.0;
        }
        spec.total_instructions /= 20;
        spec
    }

    fn name(self) -> &'static str {
        match self {
            App::Graphchi => "graphchi",
            App::Nginx => "nginx",
            App::HeaplessNginx => "nginx-heapless",
        }
    }
}

/// One single-VM configuration: a policy, the config knobs layered over
/// the 1:4 paper default, the apps it runs and whether a fault plan is
/// armed.
#[derive(Clone, Copy)]
struct Leg {
    name: &'static str,
    policy: Policy,
    tune: fn(SimConfig) -> SimConfig,
    apps: &'static [App],
    faults: bool,
}

const BOTH: &[App] = &[App::Graphchi, App::Nginx];

fn leg(name: &'static str, policy: Policy, tune: fn(SimConfig) -> SimConfig) -> Leg {
    Leg {
        name,
        policy,
        tune,
        apps: BOTH,
        faults: false,
    }
}

fn access_bit(cfg: SimConfig) -> SimConfig {
    cfg.with_tracking(Some(Tracking::AccessBit))
}

/// FastMem at 1/32 of SlowMem: FastMem fills, scans find more hot
/// candidates than the migration budget, and the rank order decides.
fn tight(cfg: SimConfig) -> SimConfig {
    cfg.with_capacity_ratio(1, 32)
}

fn fixed_interval(cfg: SimConfig) -> SimConfig {
    SimConfig {
        adaptive_interval: false,
        ..cfg
    }
}

fn nvm_write_aware(cfg: SimConfig) -> SimConfig {
    SimConfig {
        nvm_slow: true,
        write_aware: true,
        ..tight(cfg)
    }
}

/// FastMem at 1/128 of SlowMem, scanned every 10 ms in batches eight
/// times the default: touch odds drop with the shorter interval and the
/// wider batch reaches FastMem frames often, so full scans find untouched
/// FastMem pages while FastMem is full, and the VMM-exclusive promoter
/// demotes them to make room.
fn cold_victims(cfg: SimConfig) -> SimConfig {
    SimConfig {
        scan_batch: cfg.scan_batch * 8,
        ..cfg
            .with_capacity_ratio(1, 128)
            .with_scan_interval(Nanos::from_millis(10))
    }
}

fn legs() -> Vec<Leg> {
    use Policy::{HeteroCoordinated as Coordinated, HeteroLru, VmmExclusive};
    let mut legs = vec![
        leg("vmm-exclusive", VmmExclusive, |c| c),
        leg("vmm-exclusive-tight", VmmExclusive, |c| {
            c.with_capacity_ratio(1, 128)
        }),
        leg("hetero-lru", HeteroLru, |c| c),
        leg("coordinated", Coordinated, |c| c),
        leg("coordinated-tight", Coordinated, tight),
        leg("coordinated-unguided", Coordinated, |c| SimConfig {
            guided_tracking: false,
            ..c
        }),
        leg("coordinated-fixed-interval", Coordinated, fixed_interval),
        leg("coordinated-nvm-wa", Coordinated, nvm_write_aware),
        leg("coordinated-three-tier", Coordinated, |c| {
            c.with_medium_bytes(GB)
        }),
        leg("vmm-exclusive+ad", VmmExclusive, access_bit),
        leg("coordinated+ad", Coordinated, access_bit),
        leg("coordinated+ad-tight", Coordinated, |c| {
            tight(access_bit(c))
        }),
        leg("coordinated+ad-fixed-interval", Coordinated, |c| {
            fixed_interval(access_bit(c))
        }),
        leg("coordinated+ad-nvm-wa", Coordinated, |c| {
            nvm_write_aware(access_bit(c))
        }),
        Leg {
            apps: &[App::HeaplessNginx],
            ..leg("coordinated+ad", Coordinated, access_bit)
        },
    ];
    for (name, tune) in [
        ("coordinated+faults", (|c| c) as fn(SimConfig) -> SimConfig),
        ("coordinated+ad+faults", access_bit),
    ] {
        legs.push(Leg {
            faults: true,
            ..leg(name, Coordinated, tune)
        });
    }
    legs.push(Leg {
        apps: &[App::Graphchi],
        ..leg("vmm-exclusive-victims", VmmExclusive, cold_victims)
    });
    // At 1:128 the A/D promoter meets a full FastMem with nothing inactive
    // left to demote, so it stops early.
    legs.push(leg("coordinated+ad-1to128", Coordinated, |c| {
        access_bit(c).with_capacity_ratio(1, 128)
    }));
    legs
}

/// Runs one leg and returns its report, trace and telemetry digest lines.
fn run_leg(leg: Leg, app: App, seed: u64) -> String {
    let mut cfg = (leg.tune)(
        SimConfig::paper_default()
            .with_capacity_ratio(1, 4)
            .with_seed(seed)
            .with_telemetry(true),
    );
    cfg.trace_events = 100_000;
    let wl = AppWorkload::new(app.spec(), cfg.page_size, cfg.scale);
    let mut sim = SingleVmSim::new(cfg, leg.policy, wl);
    if leg.faults {
        sim.set_fault_injector(FaultInjector::new(FaultPlan::for_seed(seed)));
    }
    while sim.step() {}
    let id = format!("single {} {} seed={seed}", leg.name, app.name());
    let log = sim.events().expect("tracing enabled");
    assert_eq!(log.dropped(), 0, "{id}: trace ring overflowed");
    let trace: String = log.iter().map(|e| format!("{e}\n")).collect();
    let telemetry = sim.telemetry().expect("telemetry enabled").snapshot_json();
    format!(
        "{id} report {:016x}\n{id} trace {:016x}\n{id} telemetry {:016x}\n",
        fnv64(sim.report().to_json().as_bytes()),
        fnv64(trace.as_bytes()),
        fnv64(telemetry.as_bytes()),
    )
}

type Driver = fn(&ExpOptions) -> String;

const DRIVERS: [(&str, Driver); 8] = [
    ("fig8", |o| overhead::fig8(o).to_json()),
    ("fig9", |o| placement::fig9(o).to_json()),
    ("fig12", coordinated::fig12_table),
    ("ablation-interval", |o| {
        ablations::ablation_adaptive_interval(o).to_json()
    }),
    ("ablation-scope", |o| {
        ablations::ablation_tracking_scope(o).to_json()
    }),
    ("ext-wear", |o| extensions::ext_wear(o).to_json()),
    ("ext-multitier", |o| extensions::ext_multitier(o).to_json()),
    ("tiers", |o| tiers::tiers_matrix(o).to_json()),
];

enum Cell {
    Single(Leg, App, u64),
    Driver(&'static str, Driver),
}

fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for leg in legs() {
        let seeds: &[u64] = if leg.faults { &FAULT_SEEDS } else { &SEEDS };
        for &seed in seeds {
            for &app in leg.apps {
                cells.push(Cell::Single(leg, app, seed));
            }
        }
    }
    cells.extend(DRIVERS.iter().map(|&(name, f)| Cell::Driver(name, f)));
    cells
}

fn render() -> String {
    let lines = Runner::new(0).run(cells(), |cell| match cell {
        Cell::Single(leg, app, seed) => run_leg(leg, app, seed),
        Cell::Driver(name, f) => {
            format!(
                "driver {name} {:016x}\n",
                fnv64(f(&ExpOptions::quick()).as_bytes())
            )
        }
    });
    let mut out = String::from("# FNV-1a/64 golden digests; regenerate per tests/golden.rs\n");
    out.extend(lines);
    out
}

#[test]
fn fnv64_matches_reference_vectors() {
    assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
}

#[test]
fn engine_output_matches_golden_digests() {
    let actual = render();
    if actual != GOLDEN {
        let changed: Vec<&str> = actual
            .lines()
            .filter(|l| !GOLDEN.lines().any(|g| g == *l))
            .collect();
        panic!(
            "{} golden digest(s) changed:\n  {}\n\n\
             If the change is intended, replace tests/golden/digests.txt with \
             the following and name each changed digest in CHANGES.md:\n\
             ----- BEGIN tests/golden/digests.txt -----\n{actual}\
             ----- END tests/golden/digests.txt -----",
            changed.len(),
            changed.join("\n  "),
        );
    }
}
