# The crash, fault and schedule panels: the three gated sweeps that
# scripts/run_tests.sh runs as smoke checks and scripts/run_benches.sh
# records (without their host-speed columns) in BENCH_panels.txt. Both
# source this file, so the two always run the same commands.
#
# Each entry is a bench binary (under <build>/bench/) and its flags.
PANELS=(
  "crashmc_sweep --points 200"
  "crashmc_sweep --faults --points 80 --poison-points 20 --seed 42 --checksums"
  "schedmc_sweep --schedules 60 --dfs 24 --crash 2"
)

# run_panel BUILD I: run panel I with the binaries of the build tree
# BUILD. Exits non-zero when the panel finds a violation.
run_panel() {
  local -a cmd
  read -r -a cmd <<< "${PANELS[$2]}"
  "$1/bench/${cmd[0]}" "${cmd[@]:1}"
}

# run_panels BUILD: every panel in order, stopping at the first failure.
run_panels() {
  local i
  for i in "${!PANELS[@]}"; do
    run_panel "$1" "$i" || return
  done
}
