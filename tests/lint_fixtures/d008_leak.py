"""Fixture: D008 -- discarded futures/tasks."""


async def leaky(kernel, service):
    kernel.create_task(service.run())            # line 5: D008
    service.spawn_task(service.audit())          # line 6: D008
    kept = kernel.create_task(service.other())   # fine: handle kept
    kernel.create_task(service.bg()).detach()    # fine: detached
    service.process.start_task(service.bg())     # fine: fire-and-forget
    await kept
