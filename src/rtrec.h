#ifndef RTREC_RTREC_H_
#define RTREC_RTREC_H_

/// Umbrella header: the public API of the rtrec library — the real-time
/// video recommendation system of Huang et al., SIGMOD 2016 (see
/// README.md / DESIGN.md). Include individual headers for finer-grained
/// dependencies; this header is the convenient kitchen-sink for
/// applications.

// The production engine and its pieces.
#include "core/action.h"
#include "core/engine.h"
#include "core/implicit_feedback.h"
#include "core/model_config.h"
#include "core/online_mf.h"
#include "core/recommender.h"
#include "core/sim_table.h"
#include "core/similarity.h"
#include "core/topology_factory.h"

// Demographic optimizations (Section 5.2).
#include "demographic/demographic_filter.h"
#include "demographic/demographic_trainer.h"
#include "demographic/group_checkpoint.h"
#include "demographic/grouper.h"
#include "demographic/hot_videos.h"
#include "demographic/profile.h"

// The full production serving stack.
#include "service/recommendation_service.h"

// The network serving layer: wire protocol, epoll TCP server, client.
#include "net/rec_client.h"
#include "net/rec_server.h"
#include "net/socket.h"
#include "net/wire.h"

// Storage.
#include "kvstore/checkpoint.h"
#include "kvstore/factor_store.h"
#include "kvstore/history_store.h"
#include "kvstore/sim_table_store.h"

// Stream engine.
#include "stream/bolt.h"
#include "stream/grouping.h"
#include "stream/topology.h"
#include "stream/topology_builder.h"
#include "stream/tuple.h"

// Baselines (Section 6.2 comparative methods).
#include "baselines/assoc_rules.h"
#include "baselines/hot_recommender.h"
#include "baselines/item_cf.h"
#include "baselines/reservoir_mf.h"
#include "baselines/simhash_cf.h"

// Workload + evaluation.
#include "data/dataset.h"
#include "data/event_generator.h"
#include "data/log_format.h"
#include "eval/ab_test.h"
#include "eval/evaluator.h"
#include "eval/experiment_runner.h"
#include "eval/metrics.h"

#endif  // RTREC_RTREC_H_
