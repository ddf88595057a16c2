#include "coverage/coverage.h"

#include <algorithm>

#include "support/logging.h"

namespace nnsmith::coverage {

CoverageMap
CoverageMap::unionWith(const CoverageMap& other) const
{
    CoverageMap out = *this;
    out.branches_.insert(other.branches_.begin(), other.branches_.end());
    return out;
}

CoverageMap
CoverageMap::intersect(const CoverageMap& other) const
{
    CoverageMap out;
    std::set_intersection(branches_.begin(), branches_.end(),
                          other.branches_.begin(), other.branches_.end(),
                          std::inserter(out.branches_,
                                        out.branches_.begin()));
    return out;
}

CoverageMap
CoverageMap::minus(const CoverageMap& other) const
{
    CoverageMap out;
    std::set_difference(branches_.begin(), branches_.end(),
                        other.branches_.begin(), other.branches_.end(),
                        std::inserter(out.branches_, out.branches_.begin()));
    return out;
}

thread_local CoverageCollector* CoverageRegistry::activeCollector_ = nullptr;

CoverageCollector::CoverageCollector()
{
    NNSMITH_ASSERT(CoverageRegistry::activeCollector_ == nullptr,
                   "a CoverageCollector is already active on this thread");
    CoverageRegistry::activeCollector_ = this;
}

CoverageCollector::~CoverageCollector()
{
    CoverageRegistry::activeCollector_ = nullptr;
}

std::vector<BranchId>
CoverageCollector::take()
{
    std::vector<BranchId> out(hits_.begin(), hits_.end());
    hits_.clear();
    return out;
}

std::vector<BranchId>
CoverageCollector::activeHits()
{
    const CoverageCollector* active = CoverageRegistry::activeCollector_;
    if (active == nullptr)
        return {};
    return {active->hits_.begin(), active->hits_.end()};
}

CoverageRegistry&
CoverageRegistry::instance()
{
    static CoverageRegistry registry;
    return registry;
}

BranchId
CoverageRegistry::findOrAddLocked(const std::string& key,
                                  const std::string& component,
                                  bool pass_only)
{
    auto it = byKey_.find(key);
    if (it != byKey_.end())
        return it->second;
    const BranchId id = static_cast<BranchId>(sites_.size());
    sites_.push_back(Site{component, key, pass_only, false});
    byKey_.emplace(key, id);
    return id;
}

BranchId
CoverageRegistry::registerSite(const std::string& component,
                               const char* file, int line,
                               int discriminator, bool pass_only)
{
    const std::string key = component + "|" + file + ":" +
                            std::to_string(line) + "#" +
                            std::to_string(discriminator);
    std::lock_guard<std::mutex> lock(mu_);
    return findOrAddLocked(key, component, pass_only);
}

void
CoverageRegistry::hit(BranchId id)
{
    std::lock_guard<std::mutex> lock(mu_);
    NNSMITH_ASSERT(id < sites_.size(), "unknown branch id ", id);
    if (activeCollector_ != nullptr) {
        activeCollector_->hits_.insert(id);
        return;
    }
    sites_[id].hit = true;
}

void
CoverageRegistry::hitDynamic(const std::string& component,
                             const std::string& key, bool pass_only)
{
    const std::string full_key = component + "|dyn|" + key;
    const bool collect = activeCollector_ != nullptr;
    BranchId id;
    {
        std::lock_guard<std::mutex> lock(mu_);
        id = findOrAddLocked(full_key, component, pass_only);
        if (!collect) {
            sites_[id].hit = true;
            return;
        }
    }
    activeCollector_->hits_.insert(id);
}

void
CoverageRegistry::hitRange(const std::string& component, size_t count,
                           double fraction, bool pass_only)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ranges_.find(component);
    if (it == ranges_.end()) {
        // Element keys go through findOrAddLocked so a block whose
        // elements were already interned from a worker's wire records
        // (internSiteKey) reuses those ids instead of minting a
        // divergent second block.
        std::vector<BranchId> ids;
        ids.reserve(count);
        for (size_t i = 0; i < count; ++i)
            ids.push_back(findOrAddLocked(
                component + "|range#" + std::to_string(i), component,
                pass_only));
        it = ranges_.emplace(component, std::move(ids)).first;
    }
    const auto& ids = it->second;
    const size_t n = std::min(
        ids.size(),
        static_cast<size_t>(fraction * static_cast<double>(ids.size())));
    if (activeCollector_ != nullptr) {
        for (size_t i = 0; i < n; ++i)
            activeCollector_->hits_.insert(ids[i]);
        return;
    }
    for (size_t i = 0; i < n; ++i)
        sites_[ids[i]].hit = true;
}

std::vector<SiteInfo>
CoverageRegistry::describeSites(const std::vector<BranchId>& ids) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SiteInfo> out;
    out.reserve(ids.size());
    for (const BranchId id : ids) {
        NNSMITH_ASSERT(id < sites_.size(), "unknown branch id ", id);
        out.push_back(SiteInfo{sites_[id].key, sites_[id].passOnly});
    }
    return out;
}

BranchId
CoverageRegistry::internSiteKey(const std::string& key, bool pass_only)
{
    const auto bar = key.find('|');
    NNSMITH_ASSERT(bar != std::string::npos && bar > 0,
                   "site key '", key, "' has no component prefix");
    std::lock_guard<std::mutex> lock(mu_);
    return findOrAddLocked(key, key.substr(0, bar), pass_only);
}

CoverageMap
CoverageRegistry::snapshot() const
{
    return snapshot("");
}

CoverageMap
CoverageRegistry::snapshot(const std::string& component_prefix) const
{
    std::lock_guard<std::mutex> lock(mu_);
    CoverageMap map;
    for (BranchId id = 0; id < sites_.size(); ++id) {
        const Site& site = sites_[id];
        if (site.hit && site.component.rfind(component_prefix, 0) == 0)
            map.add(id);
    }
    return map;
}

CoverageMap
CoverageRegistry::snapshotPassOnly(const std::string& component_prefix) const
{
    std::lock_guard<std::mutex> lock(mu_);
    CoverageMap map;
    for (BranchId id = 0; id < sites_.size(); ++id) {
        const Site& site = sites_[id];
        if (site.hit && site.passOnly &&
            site.component.rfind(component_prefix, 0) == 0)
            map.add(id);
    }
    return map;
}

CoverageMap
CoverageRegistry::filterIds(const std::vector<BranchId>& ids,
                            const std::string& component_prefix,
                            bool pass_only) const
{
    std::lock_guard<std::mutex> lock(mu_);
    CoverageMap map;
    for (const BranchId id : ids) {
        NNSMITH_ASSERT(id < sites_.size(), "unknown branch id ", id);
        const Site& site = sites_[id];
        if (pass_only && !site.passOnly)
            continue;
        if (site.component.rfind(component_prefix, 0) == 0)
            map.add(id);
    }
    return map;
}

void
CoverageRegistry::resetHits()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& site : sites_)
        site.hit = false;
}

size_t
CoverageRegistry::sitesRegistered(const std::string& component_prefix) const
{
    std::lock_guard<std::mutex> lock(mu_);
    size_t count = 0;
    for (const auto& site : sites_) {
        if (site.component.rfind(component_prefix, 0) == 0)
            ++count;
    }
    return count;
}

void
CoverageRegistry::declareTotal(const std::string& component, size_t total)
{
    std::lock_guard<std::mutex> lock(mu_);
    declaredTotals_[component] = total;
}

size_t
CoverageRegistry::declaredTotal(const std::string& component_prefix) const
{
    std::lock_guard<std::mutex> lock(mu_);
    size_t total = 0;
    for (const auto& [component, n] : declaredTotals_) {
        if (component.rfind(component_prefix, 0) == 0)
            total += n;
    }
    return total;
}

} // namespace nnsmith::coverage
