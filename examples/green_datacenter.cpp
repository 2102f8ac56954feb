/**
 * @file
 * Green data-center planning: combine the server accounting, diurnal
 * carbon-intensity, carbon-aware scheduling, and refresh-interval
 * models into one operator's decision sheet -- which grid, which
 * schedule, and how often to replace hardware.
 */

#include <iostream>

#include "core/scheduling.h"
#include "data/carbon_intensity_db.h"
#include "server/datacenter.h"
#include "util/strings.h"
#include "util/table.h"

int
main()
{
    using namespace act;

    const core::FabParams fab;
    const server::ServerPlatform platform =
        server::dellR740Platform(fab);
    std::cout << "Planning around a " << platform.name
              << "-class fleet (embodied "
              << util::formatSig(util::asKilograms(platform.embodied), 4)
              << " kg CO2/server)\n\n";

    // --- Decision 1: site selection ----------------------------------
    util::Table sites({"Region", "Annual CF (t/server)",
                       "embodied share"});
    for (data::Region region :
         {data::Region::India, data::Region::UnitedStates,
          data::Region::Europe, data::Region::Brazil,
          data::Region::Iceland}) {
        server::DatacenterParams dc;
        dc.grid = core::OperationalParams::forRegion(region);
        const auto annual = server::annualFootprint(platform, dc);
        sites.addRow(std::string(data::regionName(region)),
                     {util::asGrams(annual.total()) / 1e6,
                      annual.embodiedShare()});
    }
    std::cout << "1. Site selection (PUE 1.2, 50% utilization):\n"
              << sites.render() << "\n";

    // --- Decision 2: schedule deferrable batch work -------------------
    core::DailyLoad load;
    load.baseline = util::watts(310.0);      // interactive tier
    load.deferrable_energy = util::kilowattHours(3.0);  // nightly batch
    load.deferrable_capacity = util::watts(500.0);
    const auto day = data::IntensitySeries::solarDay(
        data::regionIntensity(data::Region::UnitedStates), 0.3);
    const auto uniform =
        core::schedule(load, day, {core::DeferralPolicy::Uniform});
    const auto aware = core::schedule(
        load, day, {core::DeferralPolicy::GreedyGreenest});
    const double saving = util::asGrams(uniform.deferrable_footprint) /
                          util::asGrams(aware.deferrable_footprint);
    std::cout << "2. Batch scheduling on a 30%-solar grid:\n"
              << "   uniform schedule:      "
              << util::formatSig(util::asGrams(uniform.total()), 4)
              << " g CO2/day\n"
              << "   carbon-aware schedule: "
              << util::formatSig(util::asGrams(aware.total()), 4)
              << " g CO2/day (" << util::formatSig(saving, 3)
              << "x saving on the deferrable tier)\n\n";

    // --- Decision 3: refresh cadence ----------------------------------
    util::Table refresh({"Grid", "Optimal refresh (years)",
                         "Footprint vs 3y refresh"});
    for (data::EnergySource source :
         {data::EnergySource::Coal, data::EnergySource::Gas,
          data::EnergySource::Solar, data::EnergySource::Wind}) {
        server::DatacenterParams dc;
        dc.grid = core::OperationalParams::forSource(source);
        const auto sweep = server::refreshSweep(platform, dc);
        const std::size_t best = core::optimalReplacementIndex(sweep);
        refresh.addRow(std::string(data::sourceName(source)),
                       {sweep[best].lifetime_years,
                        util::asGrams(sweep[best].total()) /
                            util::asGrams(sweep[2].total())});
    }
    std::cout << "3. Refresh cadence (12-year horizon, 1.12x/yr server "
                 "efficiency growth):\n"
              << refresh.render() << "\n";

    std::cout << "Takeaway: on a clean grid the data center's carbon "
                 "problem becomes a manufacturing problem -- embodied "
                 "share rises, refresh cycles should lengthen, and "
                 "procurement (fab carbon) becomes the lever that "
                 "matters.\n";
    return 0;
}
