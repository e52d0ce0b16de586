package cluster

// DriftSpeedSum adds d to the running speed sum of node id's cluster
// without touching its members: the drift the O(1) statistics could
// silently develop, for tests of CheckSums.
func (m *Manager) DriftSpeedSum(id NodeID, d float64) {
	c, _ := m.byNode.Get(int(id))
	c.speedSum += d
}
