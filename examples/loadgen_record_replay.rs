//! Record-then-replay demo: capture real HTTP traffic into a `SABRTRACE`
//! file, then replay it at a controlled rate against every topology and
//! print one outcome line per topology.
//!
//! The full loadgen loop in one program:
//!
//! 1. synthesise a request stream from a corpus preset;
//! 2. drive it through a live HTTP ingress with the opt-in
//!    [`RequestRecorder`](saberlda::serve::RequestRecorder) hook enabled,
//!    capturing words, seeds and true arrival offsets;
//! 3. freeze the capture to a `SABRTRACE` file and load it back;
//! 4. replay the file open-loop against the direct server, a two-shard
//!    local router and a two-shard real-TCP remote fleet;
//! 5. print each replay's outcome: counts, achieved rate, p50/p99.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example loadgen_record_replay
//! ```

use std::time::Duration;

use saber_loadgen::replay::{
    record_over_http, replay, replay_model, RateProfile, ReplayConfig, Topology, TopologyHandle,
};
use saber_loadgen::synth::synthesize_trace;
use saber_loadgen::trace::RequestTrace;
use saberlda::corpus::synthetic::SyntheticSpec;
use saberlda::serve::ServeConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A deterministic synthetic request stream.
    let stream = synthesize_trace(&SyntheticSpec::small_test(), 120, 42);
    let model = replay_model(stream.vocab_size() as usize, 16, 7)?;

    // 2–3. Record it at a real HTTP ingress, freeze, reload.
    println!("recording {} requests over HTTP…", stream.len());
    let recorded = record_over_http(&stream, &model, &ServeConfig::default(), stream.len())?;
    let path = std::env::temp_dir().join("loadgen_demo.sabrtrace");
    recorded.save(&path)?;
    let trace = RequestTrace::load(&path)?;
    std::fs::remove_file(&path).ok();
    println!(
        "captured {} requests ({} tokens) into SABRTRACE\n",
        trace.len(),
        trace.total_tokens()
    );

    // 4. Replay the capture open-loop at 400 QPS on all three topologies.
    let rate = RateProfile::Fixed { qps: 400.0 };
    let config = ReplayConfig {
        threads: 4,
        deadline: Duration::from_secs(5),
        collect_thetas: false,
    };
    for topology in [
        Topology::Direct,
        Topology::LocalShards(2),
        Topology::RemoteShards(2),
    ] {
        let handle = TopologyHandle::build(topology, &model, &ServeConfig::default())?;
        let outcome = replay(&handle.backend(), &trace, &rate, &config);
        handle.shutdown();
        // 5. One line per topology, as `saber-loadgen replay` prints it.
        println!("{}: {outcome}", topology.label());
    }
    Ok(())
}
