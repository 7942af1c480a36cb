#!/usr/bin/env bash
# Runs CMD... and then prints the share of CPU time the host stole from this
# machine while it ran, read from the "cpu" line of /proc/stat before and
# after: steal=<percent>, or steal=n/a where /proc/stat does not exist. A
# benchmark run with a large steal share cannot be told from a regression, so
# record this beside every run. The exit status is CMD's.
#
#   scripts/steal.sh bash benchmark/run.sh --workload lan-stream-small --seconds 20 --trace 0
set -uo pipefail

# cpu_times prints the total and the steal jiffies of all CPUs.
cpu_times() {
	awk '$1 == "cpu" { t = 0; for (i = 2; i <= 9 && i <= NF; i++) t += $i; print t, $9; exit }' /proc/stat
}

if [ ! -r /proc/stat ]; then
	"$@"
	status=$?
	echo "steal=n/a"
	exit "$status"
fi
read -r total0 steal0 < <(cpu_times)
"$@"
status=$?
read -r total1 steal1 < <(cpu_times)
awk -v t="$((total1 - total0))" -v s="$((steal1 - steal0))" \
	'BEGIN { if (t > 0) printf "steal=%.1f\n", 100 * s / t; else print "steal=0.0" }'
exit "$status"
