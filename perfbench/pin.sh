#!/usr/bin/env sh
# Regenerates perfbench/fingerprints.tsv, the outputs every benchmark run
# is checked against. Run it from any directory after a change that is
# meant to alter simulated behaviour, and say so in the change:
#
#   sh perfbench/pin.sh
#
# Seed 1 is the primary seed, seed 20171 the held-out seed (do not look
# at it while writing a change), seeds 0 and 2-10 a sweep.
set -eu
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench"
out=perfbench/fingerprints.tsv
{
    printf '# workload\tseed\trole\tevents\tattempted\tsucceeded\tfailed\tplt_p50_s\tplt_p95_s\tload_failure_rate\tslo_attainment\tplr\n'
    for w in sc_tunnel_480 sc_gateway_cache_480 ss_knee_240 tor_meek_120; do
        for seed in 0 1 2 3 4 5 6 7 8 9 10 20171; do
            case $seed in
                1) role=primary ;;
                20171) role=held_out ;;
                *) role=sweep ;;
            esac
            "$bin" --pin --workload "$w" --seed "$seed" --role "$role"
        done
    done
} > "$out.new"
mv "$out.new" "$out"
