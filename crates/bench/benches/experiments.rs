//! Benches: time the regeneration of each table/figure.
//! (`cargo run -p ewc-cli --release -- run <id>` prints the tables;
//! these benches measure how long each experiment's simulation pipeline
//! takes, using the in-workspace `ewc_bench::harness`.)

use ewc_bench::experiments as ex;
use ewc_bench::harness::Harness;

fn main() {
    let mut h = Harness::from_args();
    let mut g = h.benchmark_group("experiments");
    g.sample_size(10);
    g.bench_function("table1", |b| b.iter(ex::table1::run));
    g.bench_function("fig1_n4", |b| b.iter(|| ex::fig1::run(4)));
    g.bench_function("scenarios_t2_t3", |b| b.iter(ex::scenarios::run));
    g.bench_function("fig3_type1_model", |b| b.iter(ex::fig3::run));
    g.bench_function("fig4_type2_model", |b| b.iter(ex::fig4::run));
    g.bench_function("fig5_power_model", |b| b.iter(ex::fig5::run));
    g.bench_function("fig7_n3", |b| b.iter(|| ex::fig7::run(3)));
    g.bench_function("fig8_n3", |b| b.iter(|| ex::fig8::run(3)));
    g.bench_function("tables56", |b| b.iter(ex::tables56::run));
    g.bench_function("tables78", |b| b.iter(ex::tables78::run));
    g.finish();
}
