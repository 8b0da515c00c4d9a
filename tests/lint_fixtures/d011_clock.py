"""D011 fixture: assignments to `.now` outside repro/sim/."""


def skew(kernel, clock, other, steps):
    kernel.now = 5.0                                   # line 5: D011
    kernel.now += 1.0                                  # line 6: D011
    clock.now, other.x = 0.0, 1                        # line 7: D011
    for kernel.now in steps:                           # line 8: D011
        pass
    now = kernel.now                  # reads and plain names are fine
    other.now_ms = now * 1000.0
    return now, other.now
