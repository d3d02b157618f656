#!/usr/bin/env bash
# Sharded-deployment driver: the one-machine cluster drill and a
# long-lived dev cluster. See docs/OPERATIONS.md, "Running a cluster".
#
#   scripts/cluster.sh [--smoke] [--build-dir=DIR]
#       Run the chaos drill (default mode, what CI's cluster smoke job
#       calls with --smoke): examples/cluster_drill forks a 4-process
#       cluster, drives ClusterClient loadgen, kill -9s a shard
#       mid-traffic, restarts it, and gates on the drill contract —
#       bounded outage errors, a DEGRADED failover answer, a stitched
#       hop=1 trace, measured recovery, a zero-error post window and
#       every shard healthy at the end.
#
#   scripts/cluster.sh --up[=N] [--build-dir=DIR] [--base-port=P]
#       Bring up an N-shard cluster (default 4) in the background on
#       ports P..P+N-1 (default 7471). Readiness is gated on rec_ping —
#       the script returns only when every shard answers Ping, no
#       sleep-and-hope. State (manifest, pids, logs, checkpoints) lives
#       in .cluster/.
#
#   scripts/cluster.sh --down
#       Stop a --up cluster and remove .cluster/.
#
# Exits non-zero if bring-up or the drill fails.

set -u

mode="drill"
smoke=""
build_dir="build"
num_shards=4
base_port=7471
state_dir=".cluster"

for arg in "$@"; do
  case "${arg}" in
    --smoke) smoke="--smoke" ;;
    --up) mode="up" ;;
    --up=*) mode="up"; num_shards="${arg#--up=}" ;;
    --down) mode="down" ;;
    --build-dir=*) build_dir="${arg#--build-dir=}" ;;
    --base-port=*) base_port="${arg#--base-port=}" ;;
    *)
      echo "usage: scripts/cluster.sh [--smoke] [--build-dir=DIR]" \
           "| --up[=N] [--base-port=P] | --down" >&2
      exit 2
      ;;
  esac
done

ensure_built() {
  local target
  for target in "$@"; do
    local path
    path="$(find "${build_dir}" -name "${target}" -type f -perm -u+x \
            2>/dev/null | head -1)"
    if [[ -z "${path}" ]]; then
      echo "cluster.sh: building ${target}" >&2
      cmake --build "${build_dir}" --target "${target}" -j "$(nproc)" \
        || exit 2
    fi
  done
}

if [[ "${mode}" == "down" ]]; then
  if [[ -f "${state_dir}/pids" ]]; then
    while read -r pid; do
      kill "${pid}" 2>/dev/null || true
    done < "${state_dir}/pids"
    # Give the shards a moment to take their final checkpoint.
    while read -r pid; do
      for _ in $(seq 1 50); do
        kill -0 "${pid}" 2>/dev/null || break
        sleep 0.1
      done
    done < "${state_dir}/pids"
  fi
  rm -rf "${state_dir}"
  echo "cluster down"
  exit 0
fi

if [[ "${mode}" == "up" ]]; then
  if [[ -f "${state_dir}/pids" ]]; then
    echo "cluster.sh: ${state_dir}/pids exists — already up?" \
         "(scripts/cluster.sh --down first)" >&2
    exit 1
  fi
  ensure_built serve rec_ping
  serve_bin="${build_dir}/examples/serve"
  ping_bin="${build_dir}/examples/rec_ping"
  mkdir -p "${state_dir}"
  manifest="${state_dir}/manifest.txt"
  {
    echo "# rtrec cluster manifest (scripts/cluster.sh --up)"
    for ((i = 0; i < num_shards; ++i)); do
      echo "shard ${i} 127.0.0.1 $((base_port + i))"
    done
  } > "${manifest}"

  for ((i = 0; i < num_shards; ++i)); do
    "${serve_bin}" --cluster-manifest="${manifest}" --shard-id="${i}" \
      --checkpoint-dir="${state_dir}/checkpoints" \
      >> "${state_dir}/shard-${i}.log" 2>&1 &
    echo $! >> "${state_dir}/pids"
  done

  # Readiness: every shard must answer Ping. rec_ping bounds each probe,
  # so a dead shard fails fast instead of hanging the gate.
  for ((i = 0; i < num_shards; ++i)); do
    ready=""
    for _ in $(seq 1 200); do
      if "${ping_bin}" 127.0.0.1 "$((base_port + i))" 250 2>/dev/null; then
        ready="yes"
        break
      fi
      sleep 0.05
    done
    if [[ -z "${ready}" ]]; then
      echo "cluster.sh: shard ${i} (port $((base_port + i))) never became" \
           "healthy; log tail:" >&2
      tail -20 "${state_dir}/shard-${i}.log" >&2 || true
      "$0" --down >/dev/null
      exit 1
    fi
  done
  echo "cluster up: ${num_shards} shards on ports" \
       "${base_port}-$((base_port + num_shards - 1)), manifest ${manifest}"
  exit 0
fi

# Drill mode.
ensure_built cluster_drill serve
exec "${build_dir}/examples/cluster_drill" ${smoke} \
  --serve-binary="${build_dir}/examples/serve"
