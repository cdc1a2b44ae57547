//! Drive the serving engine through its admission queue and show the
//! `serve::obs` stack end to end: per-request stage spans, the typed
//! metrics registry rendered as a Prometheus exposition, SLO burn rates,
//! the engine's memory-footprint tree with effective scan bandwidth,
//! and the flight recorder's slowest-request exemplar dumped as a Chrome
//! trace (load it at `chrome://tracing` or <https://ui.perfetto.dev>).
//! Finally it binds the zero-dependency exposition server on an
//! ephemeral port and scrapes `/metrics`, `/readyz` and `/debug/events`
//! over a raw TCP socket — the same bytes a Prometheus scraper or an
//! operator's `curl` would see.
//!
//! ```sh
//! cargo run -p cumf-examples --bin serve_obs_demo
//! ```

use cumf_als::{AlsConfig, AlsTrainer};
use cumf_datasets::{MfDataset, RequestSampler, SizeClass};
use cumf_gpu_sim::GpuSpec;
use cumf_serve::{
    admission_queue, AdmissionConfig, Completion, HttpConfig, ModelSnapshot, ObsConfig, ObsServer,
    Request, ServeConfig, ServeEngine, SloConfig,
};
use cumf_telemetry::footprint::human_bytes;
use cumf_telemetry::NOOP;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// One raw HTTP/1.1 GET against the exposition server — what `curl` does.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to obs server");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: demo\r\n\r\n").expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

fn main() {
    // ── Train a small model to serve ────────────────────────────────────
    let data = MfDataset::netflix(SizeClass::Tiny, 42);
    let config = AlsConfig {
        f: 16,
        iterations: 4,
        rmse_target: None,
        ..AlsConfig::for_profile(&data.profile)
    };
    let mut trainer = AlsTrainer::new(&data, config, GpuSpec::maxwell_titan_x(), 1);
    trainer.train();

    // Tight thresholds so a Tiny-sized run still produces exemplars and
    // visible burn: anything over 300 µs counts as "slow", the SLO target
    // is 2 ms.
    let obs = ObsConfig {
        slow_threshold: Duration::from_micros(300),
        exemplar_capacity: 4,
        slo: SloConfig {
            target: Duration::from_millis(2),
            ..SloConfig::default()
        },
    };
    let engine = Arc::new(
        ServeEngine::builder()
            .config(
                ServeConfig::default()
                    .with_k(10)
                    .with_shards(4)
                    .with_obs(obs),
            )
            .model(
                "default",
                trainer.x.clone(),
                ModelSnapshot::new(0, trainer.theta.clone(), vec![]),
            )
            .build()
            .expect("one trained model builds an engine"),
    );

    // ── Replay sampled traffic through the admission queue ──────────────
    let (queue, worker, done) = admission_queue(AdmissionConfig {
        max_batch: 32,
        queue_depth: 128,
    });
    let queue = queue.with_obs(engine.obs_arc());

    let mut sampler = RequestSampler::from_dataset(&data, 7);
    let stream = sampler.sample(400, 5000.0);
    let t0 = engine.now();
    let (report, completions) = std::thread::scope(|scope| {
        let engine = &engine;
        let handle = scope.spawn(move || worker.run(engine, &NOOP));
        for (i, s) in stream.iter().enumerate() {
            let due = t0 + s.arrival;
            let now = engine.now();
            if due > now {
                std::thread::sleep(Duration::from_secs_f64(due - now));
            }
            // Every 25th request arrives as a cold-start fold-in.
            let req = if i % 25 == 24 {
                Request::cold(i as u64, data.r.row_iter(s.user as usize).collect())
            } else {
                Request::known(i as u64, s.user)
            };
            queue.submit(req, due).expect("admission worker died");
        }
        drop(queue);
        let completions: Vec<Completion> = done.iter().collect();
        (handle.join().expect("worker panicked"), completions)
    });

    // ── Per-request stage decomposition (first few completions) ─────────
    println!(
        "served {} requests in {} batches; every completion decomposes into stages:",
        completions.len(),
        report.batches
    );
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "request", "e2e µs", "queue", "cache", "foldin", "score", "merge", "respond"
    );
    for c in completions.iter().take(6) {
        let st = &c.span.stages;
        println!(
            "{:<10} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            c.span.request_id,
            c.span.e2e() * 1e6,
            st.queue * 1e6,
            st.cache * 1e6,
            st.foldin * 1e6,
            st.score * 1e6,
            st.merge * 1e6,
            st.respond * 1e6,
        );
    }
    println!();

    // ── Prometheus text exposition of the typed registry ────────────────
    let now = engine.now();
    let exposition = engine.obs().render_prometheus(now);
    println!("── Prometheus exposition (histogram buckets elided) ──");
    for line in exposition.lines() {
        if !line.contains("_bucket{") {
            println!("{line}");
        }
    }
    println!();

    // ── SLO report ──────────────────────────────────────────────────────
    if let Some(slo) = &report.slo {
        println!(
            "SLO: target {:.2} ms, {:.1}% compliant, {} breached / {} shed of {} — {}",
            slo.target_secs * 1e3,
            slo.compliance * 100.0,
            slo.breached,
            slo.shed,
            slo.total,
            if slo.met() { "met" } else { "violated" }
        );
    }

    // ── Memory footprint tree + effective scan bandwidth ────────────────
    engine.refresh_memory_gauges();
    let mem = engine.memory_report();
    println!();
    println!("── Resident memory (children sum to each branch) ──");
    print!("{}", mem.render());
    println!(
        "bandwidth: {} streamed over {:.2} ms of score time — {:.2} GB/s effective",
        human_bytes(report.work.bytes),
        report.score_secs * 1e3,
        report.effective_gbps()
    );

    // ── Flight recorder: slowest-request exemplar as a Chrome trace ─────
    let flight = engine.obs().flight();
    let (seen, slow) = flight.totals();
    println!(
        "flight recorder saw {seen} spans ({slow} over the slow threshold), keeping {} exemplars",
        flight.exemplars().len()
    );
    if let Some(worst) = flight.slowest() {
        println!(
            "slowest request: id {} at {:.1} µs, dominated by `{}`",
            worst.request_id,
            worst.e2e() * 1e6,
            worst.stages.slowest().0
        );
    }
    let trace_path = "target/serve_obs_demo.trace.json";
    std::fs::write(trace_path, flight.exemplar_trace()).expect("write exemplar trace");
    println!("wrote exemplar Chrome trace to {trace_path}");

    // ── The same data over the wire: the zero-dependency HTTP plane ─────
    let server = ObsServer::bind("127.0.0.1:0", Arc::clone(&engine), HttpConfig::default())
        .expect("bind an ephemeral observability port");
    let addr = server.local_addr();
    println!();
    println!("── Scraping http://{addr}/ over raw TCP ──");

    let readyz = http_get(addr, "/readyz");
    println!(
        "/readyz → {}",
        readyz.lines().next().unwrap_or("<no status line>")
    );

    let metrics = http_get(addr, "/metrics");
    let body = metrics.split("\r\n\r\n").nth(1).unwrap_or("");
    let families = body.lines().filter(|l| l.starts_with("# TYPE")).count();
    let sample = body
        .lines()
        .find(|l| l.starts_with("serve_requests_total"))
        .unwrap_or("serve_requests_total <missing>");
    println!("/metrics → {families} metric families; e.g. `{sample}`");

    let events = http_get(addr, "/debug/events");
    let recorded = events.matches("\"kind\"").count();
    println!(
        "/debug/events → {recorded} lifecycle records (ModelRegistered, SnapshotPublished, …)"
    );

    server.shutdown();
    println!("server shut down cleanly");
}
