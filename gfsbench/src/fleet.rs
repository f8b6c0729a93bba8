//! The `fleet_uncontended` workload: `run_fleet` over failure-domain
//! shards, one GFS scheduler per shard built inside the factory.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gfs::cluster::{Cluster, Scheduler};
use gfs::scenario;
use gfs::sim::fleet::{domain_shards, run_fleet, FleetReport, FleetShard};
use gfs::sim::SimConfig;
use gfs::trace::fleet::{FleetTraceConfig, FleetTraceGenerator};
use gfs::types::{DynamicsPlan, GfsParams, GpuModel, TaskSpec, HOUR};

use crate::layers::{ShardTotals, Traced};
use crate::service::WEEK_HOURS;

pub const SHARDS: u32 = 8;
pub const NODES_PER_SHARD: u32 = 500;
/// 16 tasks per node: the fleet stays uncontended (no eviction) on every
/// trace tried; at 20 per node an occasional trace overloads a shard.
pub const TASKS: u64 = 128_000;
const GPUS_PER_NODE: u32 = 8;
const GDE_WEEKS: usize = 3;
/// Worker threads of the timed run; the reference run uses one.
pub const THREADS: usize = 2;

/// Inputs of one fleet run, built by [`setup`].
pub struct Inputs {
    clusters: Vec<Cluster>,
    traces: Vec<Vec<TaskSpec>>,
    /// Mean HP demand of each shard's trace, in GPUs: what its GDE is
    /// scaled to.
    expected_hp: Vec<f64>,
    seed: u64,
    /// Every task id, sorted.
    pub ids: Vec<u64>,
    /// Trace generation time.
    pub gen: Duration,
}

pub fn setup(seed: u64) -> Inputs {
    let t0 = Instant::now();
    let traces = FleetTraceGenerator::new(FleetTraceConfig {
        shards: SHARDS,
        tasks: TASKS,
        seed,
        ..FleetTraceConfig::default()
    })
    .generate_sharded();
    let horizon = (WEEK_HOURS * HOUR) as f64;
    let expected_hp = traces
        .iter()
        .map(|t| {
            t.iter()
                .filter(|t| t.priority.is_hp())
                .map(|t| t.total_gpus() * t.duration_secs as f64)
                .sum::<f64>()
                / horizon
        })
        .collect();
    let mut ids: Vec<u64> = traces.iter().flatten().map(|t| t.id.raw()).collect();
    ids.sort_unstable();
    let gen = t0.elapsed();
    Inputs {
        clusters: domain_shards(
            SHARDS as usize,
            NODES_PER_SHARD,
            GpuModel::A100,
            GPUS_PER_NODE,
        ),
        traces,
        expected_hp,
        seed,
        ids,
        gen,
    }
}

/// What one fleet run did.
pub struct Ran {
    pub fleet: FleetReport,
    /// Wall time of `run_fleet`.
    pub wall: Duration,
    /// Summed time of the factory calls (GDE training), traced runs only.
    pub factory: Duration,
    /// Hook totals and shard engine time, traced runs only.
    pub shards: ShardTotals,
}

/// Runs the fleet on `threads` workers; `traced` wraps every shard's
/// scheduler in the forwarding hook wrapper.
pub fn run(inputs: Inputs, threads: usize, traced: bool) -> Ran {
    let Inputs {
        clusters,
        traces,
        expected_hp,
        seed,
        ..
    } = inputs;
    let shards: Vec<FleetShard> = clusters
        .into_iter()
        .zip(traces)
        .map(|(cluster, tasks)| FleetShard {
            cluster,
            tasks,
            dynamics: DynamicsPlan::none(),
        })
        .collect();
    let cfg = SimConfig {
        max_time_secs: Some(WEEK_HOURS * HOUR),
        ..SimConfig::default()
    };
    let sink = Arc::new(Mutex::new(ShardTotals::default()));
    let factory_busy = Mutex::new(Duration::ZERO);
    let build = |i: usize| {
        scenario::gfs_full(
            GfsParams::default(),
            GDE_WEEKS,
            seed + i as u64,
            expected_hp[i],
        )
    };
    let factory = |i: usize| -> Box<dyn Scheduler> {
        if !traced {
            return Box::new(build(i));
        }
        let t0 = Instant::now();
        let s = build(i);
        *factory_busy.lock().expect("factory timer poisoned") += t0.elapsed();
        Box::new(Traced::with_sink(s, Arc::clone(&sink)))
    };
    let t0 = Instant::now();
    let fleet = run_fleet(shards, &factory, &cfg, threads);
    let wall = t0.elapsed();
    let factory = *factory_busy.lock().expect("factory timer poisoned");
    let shards = std::mem::take(&mut *sink.lock().expect("shard sink poisoned"));
    Ran {
        fleet,
        wall,
        factory,
        shards,
    }
}
