#!/usr/bin/env bash
# Console checks of the `evmarket` command: exit codes, messages, streams and
# time limits on the shipped scenarios and on generated edge cases.  Run it
# from any directory, with `evmarket` on PATH:
#
#     bash -e .github/console-checks.sh
#
# Scenario files and outputs are written under $RUNNER_TEMP, or under a new
# temporary directory when it is unset.  Exit 0 means every check passed.
set -e
# NumPy's overflow and invalid-value warnings are errors here, as in the
# tests, so a command that warns ends with a traceback.
export PYTHONWARNINGS=error::RuntimeWarning
tmp=${RUNNER_TEMP:-$(mktemp -d)}
cd "$(dirname "$0")/.."

evmarket validate scenarios/table1.scenario
# A file saved with a UTF-8 byte-order mark reads as one without.
printf '\357\273\277' | cat - scenarios/small.scenario > "$tmp/bom.scenario"
evmarket validate "$tmp/bom.scenario"
# An explicit vehicle that takes an id the fleet generates is named by
# validate itself, next to the same vehicle's other violations.
sed -e 's/id = a$/id = ev01/' -e '0,/weight = 10/s//weight = -1/' \
  scenarios/small.scenario > "$tmp/clash.scenario"
printf 'fleet:\n  count = 2\n  power_max = 22\n  weight = 10\n' >> "$tmp/clash.scenario"
status=0
evmarket validate "$tmp/clash.scenario" > "$tmp/clash.out" || status=$?
test "$status" -eq 1
grep -qxF 'ev ev01: duplicate id (the fleet generates it too)' "$tmp/clash.out"
grep -qxF 'ev ev01: weight must be positive' "$tmp/clash.out"
# A form feed inside a comment ends no line.
sed "1s/^# /# page$(printf '\f')break, /" scenarios/small.scenario > "$tmp/feed.scenario"
test "$(evmarket validate "$tmp/feed.scenario")" = "scenario ok"
# 20,000 explicit vehicles, whose weight and energy lines all
# differ, are parsed and validated within 30 s, so set-up that
# grows faster than the file fails here.
python -c '
import sys
head = open("scenarios/small.scenario").read().split("\nev:")[0]
sys.stdout.write(head + "\n")
for i in range(20000):
    sys.stdout.write(f"ev:\n  id = v{i}\n  arrival = {i % 2}\n  departure = 2\n"
                     f"  power_max = 22\n  weight = {10 + i / 20000}\n"
                     f"  energy = {i % 9}.{i:05d}\n")
' > "$tmp/many.scenario"
timeout 30 evmarket validate "$tmp/many.scenario"
# 30,000 vehicles that all arrive in the last of 30,000 slots: each
# slot admits its arrivals without scanning those still to come, so
# the day ends within 30 s, with exit 2 (the last slot cannot clear).
# Scanning them in every slot took 74 s on a 2-vCPU host.
python -c '
import sys
n = 30000
head = open("scenarios/small.scenario").read().split("\nev:")[0]
sys.stdout.write(head.replace("num_slots = 2", f"num_slots = {n}") + "\n")
for i in range(n):
    sys.stdout.write(f"ev:\n  id = v{i}\n  arrival = {n - 1}\n  departure = {n}\n"
                     "  power_max = 22\n  weight = 10\n  energy = 1\n")
' > "$tmp/late.scenario"
status=0
timeout 30 evmarket run "$tmp/late.scenario" --out "$tmp/late" 2> "$tmp/late.err" || status=$?
test "$status" -eq 0 -o "$status" -eq 2
if grep -q Traceback "$tmp/late.err"; then exit 1; fi
evmarket verify scenarios/small.scenario
evmarket verify scenarios/table1.scenario
evmarket verify tests/data/fleet-run.scenario
# A pinned-supplier day: verify's readers on scalar batches, whose
# NumPy matrices are built on first read.
evmarket verify scenarios/table1.scenario --set storage.power_min=0 --set storage.power_max=0
# A day past the slot limit, or a price loop past the iteration
# limit, is refused at once; a hang fails here within seconds, not
# at the job's time limit.
sed 's/num_slots = 2/num_slots = 99999999999999999999/' scenarios/small.scenario > "$tmp/huge.scenario"
for command in validate run; do
  status=0
  timeout 30 evmarket "$command" "$tmp/huge.scenario" || status=$?
  test "$status" -eq 1
done
status=0
timeout 30 evmarket run scenarios/small.scenario --set solver.max_iterations=99999999999999999999 || status=$?
test "$status" -eq 1
# A slot of 5e-324 minutes is 0 hours: every command refuses it with
# exit 1 and no traceback.
sed 's/slot_minutes = 15/slot_minutes = 5e-324/' scenarios/small.scenario > "$tmp/tiny.scenario"
for command in validate run uncontrolled verify; do
  status=0
  timeout 30 evmarket "$command" "$tmp/tiny.scenario" 2> "$tmp/tiny.err" || status=$?
  test "$status" -eq 1
  if grep -q Traceback "$tmp/tiny.err"; then exit 1; fi
done
# A vehicle of weight 0 would divide by zero in its EV workspace:
# validation refuses it with exit 1 and no traceback, on fleet-run's
# 40 vehicles (array kernel batches) and on 3 (scalar kernel ones).
for count in 40 3; do
  status=0
  timeout 30 evmarket run tests/data/fleet-run.scenario --set fleet.weight=0 \
    --set "fleet.count=$count" 2> "$tmp/weight.err" || status=$?
  test "$status" -eq 1
  if grep -q Traceback "$tmp/weight.err"; then exit 1; fi
done
# Powers near 1e300 leave every slot of a verified day uncertified:
# exit 2 within 60 s, no traceback or warning, and no word longer
# than 20 characters on either stream.
status=0
timeout 60 evmarket verify tests/data/fleet-run.scenario --set fleet.power_max=1e300 \
  --set dso.power_max=1e300 --set solver.max_iterations=5 \
  > "$tmp/verify.out" 2> "$tmp/verify.err" || status=$?
test "$status" -eq 2
if grep -qE 'Traceback|RuntimeWarning' "$tmp/verify.err"; then exit 1; fi
if grep -qE '[^[:space:]]{21,}' "$tmp/verify.out" "$tmp/verify.err"; then exit 1; fi
# A price step of 1e300 drives the array kernel's prices far above
# 1e30 on fleet-run: verify evaluates the objective there and exits
# 2 within 60 s, with no traceback or warning and no word longer
# than 20 characters on either stream.
status=0
timeout 60 evmarket verify tests/data/fleet-run.scenario --set solver.step_size=1e300 --set solver.max_iterations=200 \
  > "$tmp/verify.out" 2> "$tmp/verify.err" || status=$?
test "$status" -eq 2
if grep -qE 'Traceback|RuntimeWarning' "$tmp/verify.err"; then exit 1; fi
if grep -qE '[^[:space:]]{21,}' "$tmp/verify.out" "$tmp/verify.err"; then exit 1; fi
# Any price step, however small or huge, ends within 60 s with exit
# 0 or 2, no traceback, a console summary with no word longer than
# 20 characters and a summary table of finite numbers.
# fleet-run is the day whose batches take the array EV kernel.
for scenario in scenarios/small.scenario scenarios/table1.scenario tests/data/fleet-run.scenario; do
  for k in -12 -3 0 3 100 300; do
    rm -rf "$tmp/sweep"
    status=0
    timeout 60 evmarket run "$scenario" --set "solver.step_size=1e$k" \
      --out "$tmp/sweep" > "$tmp/sweep.out" 2> "$tmp/sweep.err" \
      || status=$?
    test "$status" -eq 0 -o "$status" -eq 2
    if grep -q Traceback "$tmp/sweep.err"; then exit 1; fi
    if grep -qE '[^[:space:]]{21,}' "$tmp/sweep.out"; then exit 1; fi
    test -f "$tmp/sweep/summary.csv"
    if grep -qiwE 'inf|nan' "$tmp/sweep/summary.csv"; then exit 1; fi
  done
done
