package obs

// Tenant-layer metric families, published by internal/jobs and
// labelled by the tenant id as given:
//
//	jobs.tenant.submitted{tenant}   counter  (admitted jobs)
//	jobs.tenant.done{tenant}        counter
//	jobs.tenant.failed{tenant}      counter
//	jobs.tenant.canceled{tenant}    counter
//	jobs.tenant.shed{tenant}        counter  (refused: shared queue full)
//	jobs.tenant.quota{tenant}       counter  (refused: token bucket empty)
//	jobs.tenant.queued{tenant}      gauge    (jobs waiting in this tenant's FIFO)
//	jobs.tenant.latency_ns{tenant}  histogram (submit -> terminal)

// TenantHealth is the digest of one tenant's jobs.tenant.* series.
type TenantHealth struct {
	Tenant string `json:"tenant"`

	Submitted   int64 `json:"submitted"`
	Done        int64 `json:"done"`
	Failed      int64 `json:"failed"`
	Canceled    int64 `json:"canceled"`
	Shed        int64 `json:"shed"`
	QuotaDenied int64 `json:"quota_denied"`
	Queued      int64 `json:"queued"`

	Latency HistSnapshot `json:"latency_ns"`
}

// Goodput is the tenant's count of successfully completed jobs — the
// quantity the fairness gate compares across tenants.
func (t TenantHealth) Goodput() int64 { return t.Done }

// RefusalRate is the fraction of this tenant's submission attempts
// refused by either admission path (quota or shed).
func (t TenantHealth) RefusalRate() float64 {
	attempts := t.Submitted + t.Shed + t.QuotaDenied
	if attempts == 0 {
		return 0
	}
	return float64(t.Shed+t.QuotaDenied) / float64(attempts)
}

// AnalyzeTenants extracts the per-tenant digests from a snapshot,
// sorted by tenant id: one row per id seen in any jobs.tenant.* family.
func AnalyzeTenants(s Snapshot) []TenantHealth {
	cf := s.CounterFamilies
	ids := map[string]bool{}
	members(ids, cf, "jobs.tenant.submitted", "jobs.tenant.done", "jobs.tenant.failed",
		"jobs.tenant.canceled", "jobs.tenant.shed", "jobs.tenant.quota")
	members(ids, s.GaugeFamilies, "jobs.tenant.queued")
	members(ids, s.HistogramFamilies, "jobs.tenant.latency_ns")
	out := make([]TenantHealth, 0, len(ids))
	for _, id := range sorted(ids) {
		out = append(out, TenantHealth{
			Tenant:      id,
			Submitted:   cf["jobs.tenant.submitted"][id],
			Done:        cf["jobs.tenant.done"][id],
			Failed:      cf["jobs.tenant.failed"][id],
			Canceled:    cf["jobs.tenant.canceled"][id],
			Shed:        cf["jobs.tenant.shed"][id],
			QuotaDenied: cf["jobs.tenant.quota"][id],
			Queued:      s.GaugeFamilies["jobs.tenant.queued"][id],
			Latency:     s.HistogramFamilies["jobs.tenant.latency_ns"][id],
		})
	}
	return out
}

// FairnessRatio is the max/min goodput across tenants that completed
// at least one job — 1.0 is perfect fairness, and the serve-chaos gate
// (cmd/patty's TestServeTenantFairnessUnderSkew) requires <= 2.0 when
// a hog runs five times each other tenant's clients at equal weights.
// Returns 0 when fewer than two tenants have goodput.
func FairnessRatio(ths []TenantHealth) float64 {
	var min, max int64 = -1, 0
	n := 0
	for _, th := range ths {
		g := th.Goodput()
		if g <= 0 {
			continue
		}
		n++
		if min < 0 || g < min {
			min = g
		}
		if g > max {
			max = g
		}
	}
	if n < 2 || min <= 0 {
		return 0
	}
	return float64(max) / float64(min)
}
