#include "data/device_json.h"

#include <array>
#include <cstdint>
#include <limits>
#include <utility>

#include "data/fab_db.h"
#include "data/memory_db.h"
#include "util/logging.h"

namespace act::data {

using config::JsonArray;
using config::JsonObject;
using config::JsonValue;

namespace {

constexpr std::array<std::pair<IcKind, const char *>, 4> kKindNames = {{
    {IcKind::Logic, "logic"},
    {IcKind::Dram, "dram"},
    {IcKind::Nand, "nand"},
    {IcKind::Hdd, "hdd"},
}};

constexpr std::array<std::pair<IcCategory, const char *>, 6>
    kCategoryNames = {{
        {IcCategory::MainSoc, "main_soc"},
        {IcCategory::CameraIc, "camera"},
        {IcCategory::Dram, "dram"},
        {IcCategory::Flash, "flash"},
        {IcCategory::Hdd, "hdd"},
        {IcCategory::OtherIc, "other"},
    }};

IcKind
kindFromString(const std::string &name)
{
    for (const auto &[kind, label] : kKindNames) {
        if (name == label)
            return kind;
    }
    util::fatal("unknown IC kind '", name,
                "' (expected logic/dram/nand/hdd)");
}

const char *
kindToString(IcKind kind)
{
    for (const auto &[candidate, label] : kKindNames) {
        if (candidate == kind)
            return label;
    }
    util::panic("unknown IcKind enumerator");
}

IcCategory
categoryFromString(const std::string &name)
{
    for (const auto &[category, label] : kCategoryNames) {
        if (name == label)
            return category;
    }
    util::fatal("unknown IC category '", name, "'");
}

const char *
categoryToString(IcCategory category)
{
    for (const auto &[candidate, label] : kCategoryNames) {
        if (candidate == category)
            return label;
    }
    util::panic("unknown IcCategory enumerator");
}

IcComponent
icFromJson(const JsonValue &value)
{
    IcComponent ic;
    ic.name = value.at("name").asString();
    ic.kind = kindFromString(value.at("kind").asString());
    ic.category =
        categoryFromString(value.stringOr("category", "other"));
    const std::int64_t packages = value.integerOr("packages", 1);
    if (packages < 1)
        util::fatal("IC '", ic.name, "' has a non-positive package "
                    "count");
    if (packages > std::numeric_limits<int>::max())
        util::fatal("IC '", ic.name, "' has a package count out of "
                    "range: ", packages);
    ic.package_count = static_cast<int>(packages);

    if (ic.kind == IcKind::Logic) {
        if (!value.contains("area_mm2") || !value.contains("node_nm"))
            util::fatal("logic IC '", ic.name,
                        "' needs area_mm2 and node_nm");
        ic.area = util::squareMillimeters(value.at("area_mm2").asNumber());
        ic.node_nm = value.at("node_nm").asNumber();
        ic.fab_node_name = value.stringOr("fab_node", "");
        if (util::asSquareMillimeters(ic.area) <= 0.0)
            util::fatal("logic IC '", ic.name, "' has non-positive "
                        "area");
        if (ic.fab_node_name.empty() &&
            (ic.node_nm < FabDatabase::kMinNode ||
             ic.node_nm > FabDatabase::kMaxNode)) {
            util::fatal("logic IC '", ic.name, "' node ", ic.node_nm,
                        " nm outside the modeled [3, 28] nm range");
        }
        if (!ic.fab_node_name.empty() &&
            !FabDatabase::instance().findByName(ic.fab_node_name)) {
            util::fatal("logic IC '", ic.name, "' names unknown fab "
                        "node '", ic.fab_node_name, "'");
        }
    } else {
        if (!value.contains("capacity_gb") ||
            !value.contains("technology")) {
            util::fatal("storage IC '", ic.name,
                        "' needs capacity_gb and technology");
        }
        ic.capacity =
            util::gigabytes(value.at("capacity_gb").asNumber());
        ic.technology = value.at("technology").asString();
        if (util::asGigabytes(ic.capacity) <= 0.0)
            util::fatal("storage IC '", ic.name,
                        "' has non-positive capacity");
        if (!findStorage(ic.technology)) {
            util::fatal("storage IC '", ic.name,
                        "' names unknown technology '", ic.technology,
                        "'");
        }
    }
    return ic;
}

JsonValue
toJson(const IcComponent &ic)
{
    JsonObject object;
    object["name"] = JsonValue(ic.name);
    object["kind"] = JsonValue(kindToString(ic.kind));
    object["category"] = JsonValue(categoryToString(ic.category));
    object["packages"] = JsonValue(ic.package_count);
    if (ic.kind == IcKind::Logic) {
        object["area_mm2"] =
            JsonValue(util::asSquareMillimeters(ic.area));
        object["node_nm"] = JsonValue(ic.node_nm);
        if (!ic.fab_node_name.empty())
            object["fab_node"] = JsonValue(ic.fab_node_name);
    } else {
        object["capacity_gb"] =
            JsonValue(util::asGigabytes(ic.capacity));
        object["technology"] = JsonValue(ic.technology);
    }
    return JsonValue(std::move(object));
}

LcaProfile
lcaFromJson(const JsonValue &value)
{
    LcaProfile lca;
    lca.total = util::kilograms(value.numberOr("total_kg", 0.0));
    lca.production_share = value.numberOr("production_share", 0.0);
    lca.use_share = value.numberOr("use_share", 0.0);
    lca.transport_share = value.numberOr("transport_share", 0.0);
    lca.eol_share = value.numberOr("eol_share", 0.0);
    lca.ic_share_of_production =
        value.numberOr("ic_share_of_production", 0.44);
    return lca;
}

} // namespace

DeviceRecord
deviceFromJson(const JsonValue &value)
{
    DeviceRecord device;
    device.name = value.at("name").asString();
    const std::int64_t year = value.integerOr("release_year", 0);
    if (year < std::numeric_limits<int>::min() ||
        year > std::numeric_limits<int>::max())
        util::fatal("device '", device.name,
                    "' has a release year out of range: ", year);
    device.release_year = static_cast<int>(year);
    if (value.contains("ics")) {
        for (const auto &ic : value.at("ics").asArray())
            device.ics.push_back(icFromJson(ic));
    }
    if (value.contains("lca"))
        device.lca = lcaFromJson(value.at("lca"));
    return device;
}

JsonValue
toJson(const DeviceRecord &device)
{
    JsonObject object;
    object["name"] = JsonValue(device.name);
    object["release_year"] = JsonValue(device.release_year);
    JsonArray ics;
    for (const auto &ic : device.ics)
        ics.push_back(toJson(ic));
    object["ics"] = JsonValue(std::move(ics));

    JsonObject lca;
    lca["total_kg"] = JsonValue(util::asKilograms(device.lca.total));
    lca["production_share"] = JsonValue(device.lca.production_share);
    lca["use_share"] = JsonValue(device.lca.use_share);
    lca["transport_share"] = JsonValue(device.lca.transport_share);
    lca["eol_share"] = JsonValue(device.lca.eol_share);
    lca["ic_share_of_production"] =
        JsonValue(device.lca.ic_share_of_production);
    object["lca"] = JsonValue(std::move(lca));
    return JsonValue(std::move(object));
}

DeviceRecord
loadDeviceFile(const std::string &path)
{
    try {
        return deviceFromJson(config::loadJsonFile(path));
    } catch (const config::JsonTypeError &error) {
        util::fatal("bad device file '", path, "': ", error.what());
    }
}

void
saveDeviceFile(const std::string &path, const DeviceRecord &device)
{
    config::saveJsonFile(path, toJson(device));
}

} // namespace act::data
