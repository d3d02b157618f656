#include "data/user_population.h"

#include <cassert>
#include <cmath>

namespace rtrec {

namespace {

void Normalize(std::vector<float>& v) {
  double norm = 0.0;
  for (float x : v) norm += static_cast<double>(x) * x;
  norm = std::sqrt(norm);
  if (norm < 1e-12) return;
  for (float& x : v) x = static_cast<float>(x / norm);
}

}  // namespace

UserPopulation::UserPopulation(Options options, std::vector<SimUser> users)
    : options_(options), users_(std::move(users)) {}

UserPopulation UserPopulation::Generate(const Options& options) {
  assert(options.num_users > 0);
  assert(options.num_genres > 0);
  Rng rng(options.seed);

  // One taste prototype per (gender, age) demographic cell.
  std::vector<std::vector<float>> prototypes(DemographicGrouper::kNumGroups);
  for (auto& prototype : prototypes) {
    prototype.resize(options.num_genres);
    for (float& x : prototype) x = static_cast<float>(rng.NextGaussian());
    Normalize(prototype);
  }

  std::vector<SimUser> users;
  users.reserve(options.num_users);
  for (std::size_t i = 0; i < options.num_users; ++i) {
    SimUser user;
    user.id = static_cast<UserId>(i + 1);
    user.profile.registered = rng.NextBool(options.registered_fraction);
    if (user.profile.registered) {
      // Skip kUnknown buckets so registered users land in real groups.
      user.profile.gender =
          rng.NextBool(0.5) ? Gender::kFemale : Gender::kMale;
      user.profile.age = static_cast<AgeBucket>(
          1 + rng.NextUint64(kNumAgeBuckets - 1));
      user.profile.education = static_cast<Education>(
          1 + rng.NextUint64(kNumEducationLevels - 1));
    }

    const GroupId group = DemographicGrouper::GroupFor(user.profile);
    user.taste.resize(options.num_genres);
    if (group != kGlobalGroup) {
      const std::vector<float>& prototype = prototypes[group];
      for (std::size_t g = 0; g < options.num_genres; ++g) {
        user.taste[g] =
            prototype[g] +
            static_cast<float>(rng.NextGaussian(0.0, options.taste_noise));
      }
    } else {
      // Unregistered users: individual taste with no group structure.
      for (float& x : user.taste) {
        x = static_cast<float>(rng.NextGaussian());
      }
    }
    Normalize(user.taste);

    user.activity = options.mean_activity *
                    std::exp(rng.NextGaussian(0.0, options.activity_sigma));
    users.push_back(std::move(user));
  }
  return UserPopulation(options, std::move(users));
}

const SimUser& UserPopulation::Get(UserId id) const {
  assert(id >= 1 && id <= users_.size());
  return users_[static_cast<std::size_t>(id - 1)];
}

void UserPopulation::RegisterProfiles(DemographicGrouper& grouper) const {
  for (const SimUser& user : users_) {
    if (user.profile.registered) {
      grouper.RegisterProfile(user.id, user.profile);
    }
  }
}

}  // namespace rtrec
