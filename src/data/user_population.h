#ifndef RTREC_DATA_USER_POPULATION_H_
#define RTREC_DATA_USER_POPULATION_H_

#include <cstddef>
#include <vector>

#include "common/random.h"
#include "demographic/grouper.h"
#include "demographic/profile.h"

namespace rtrec {

/// One simulated user: a demographic profile plus a *hidden* taste vector
/// in the same genre space as the catalog. Registered users' tastes are
/// drawn around their demographic group's prototype — the planted
/// between-group variation that demographic training exploits (Fig. 3).
struct SimUser {
  UserId id = 0;
  UserProfile profile;
  /// Hidden taste vector, unit norm. Invisible to the models.
  std::vector<float> taste;
  /// Expected engaged sessions per day (activity skew).
  double activity = 1.0;
};

/// The synthetic user population.
class UserPopulation {
 public:
  struct Options {
    std::size_t num_users = 2000;
    /// Must match the catalog's genre dimensionality.
    std::size_t num_genres = 8;
    /// Fraction of registered users (the rest are unregistered — a large
    /// proportion in Tencent Video, per the paper's introduction).
    double registered_fraction = 0.7;
    /// How tightly a registered user's taste clusters around the group
    /// prototype (smaller noise → stronger group signal).
    double taste_noise = 0.4;
    /// Mean engaged sessions per user per day.
    double mean_activity = 3.0;
    /// Activity skew: activity ~ mean * exp(Gaussian(0, sigma)).
    double activity_sigma = 0.8;
    std::uint64_t seed = 7;
  };

  /// Deterministically generates a population.
  static UserPopulation Generate(const Options& options);

  /// User ids are 1..size(); id 0 is invalid.
  const SimUser& Get(UserId id) const;
  std::size_t size() const { return users_.size(); }
  const std::vector<SimUser>& users() const { return users_; }

  /// Registers every registered user's profile into `grouper`.
  void RegisterProfiles(DemographicGrouper& grouper) const;

  const Options& options() const { return options_; }

 private:
  UserPopulation(Options options, std::vector<SimUser> users);

  Options options_;
  std::vector<SimUser> users_;
};

}  // namespace rtrec

#endif  // RTREC_DATA_USER_POPULATION_H_
